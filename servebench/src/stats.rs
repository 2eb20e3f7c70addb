//! Small measurement helpers: a seeded generator, a streaming body digest,
//! percentiles, and the host facts a result is reported with.

use std::time::Duration;

/// SplitMix64: the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x243F_6A88_85A3_08D3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A fast streaming digest over a byte stream: four independent
/// multiply-rotate lanes over 32-byte blocks, so a 12 MB body costs the
/// client well under a millisecond. Split points do not matter — feeding
/// the same bytes in any chunking gives the same digest. Not collision
/// resistant against an adversary; it only has to tell a wrong document
/// from the right one.
#[derive(Clone, Copy, Default)]
pub struct Digest {
    lanes: [u64; 4],
    len: u64,
    tail: [u8; 32],
    tail_len: usize,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Digest {
    fn block(&mut self, b: &[u8]) {
        for (lane, w) in self.lanes.iter_mut().zip(b.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (32 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 32 {
                return;
            }
            let tail = self.tail;
            self.block(&tail);
            self.tail_len = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for b in &mut blocks {
            self.block(b);
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// `(hash, length)` of everything fed so far.
    pub fn finish(mut self) -> (u64, u64) {
        let mut last = [0u8; 32];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        self.block(&last);
        let mut h = self.len;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(K).rotate_left(31);
        }
        (h ^ (h >> 32), self.len)
    }

    pub fn of(bytes: &[u8]) -> (u64, u64) {
        let mut d = Digest::default();
        d.update(bytes);
        d.finish()
    }
}

/// Nearest-rank percentile of an ascending slice (`0.0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (NaN-free input) and take the nearest-rank percentile.
pub fn pct_of(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(not(target_os = "linux"))]
compile_error!("servebench reads VmHWM and the kernel's name from /proc");

/// Peak resident set of this process (server included), in MB: `VmHWM`.
/// Not `getrusage`'s `ru_maxrss`, which carries over the high-water mark
/// of the process image that exec'd this one (e.g. `cargo run`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Restart the `VmHWM` count from the current resident set, so that
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// `sysname release version machine`, as `uname -a` reports them.
pub fn uname_line() -> String {
    let field = |name: &str| {
        std::fs::read_to_string(format!("/proc/sys/kernel/{name}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
    };
    format!(
        "{} {} {} {}",
        field("ostype"),
        field("osrelease"),
        field("version"),
        std::env::consts::ARCH
    )
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = Digest::of(&data);
        for step in [1, 3, 31, 32, 33, 500] {
            let mut d = Digest::default();
            for c in data.chunks(step) {
                d.update(c);
            }
            assert_eq!(d.finish(), whole, "step {step}");
        }
        assert_ne!(Digest::of(&data[..999]), whole);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
