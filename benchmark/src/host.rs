//! What the host allows: core count, last-level cache, a same-footprint
//! copy ceiling, and this process's peak resident set.

use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of cpu0's highest-level cache in MiB, or 0 where sysfs does
/// not say.
pub fn llc_mib() -> f64 {
    let mut best = (0u32, 0.0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let mib = match size.as_bytes().last() {
            Some(b'K') => size[..size.len() - 1].parse::<f64>().map(|k| k / 1024.0),
            Some(b'M') => size[..size.len() - 1].parse::<f64>(),
            Some(b'G') => size[..size.len() - 1].parse::<f64>().map(|g| g * 1024.0),
            _ => size.parse::<f64>().map(|b| b / (1 << 20) as f64),
        };
        if let Ok(mib) = mib {
            if level > best.0 {
                best = (level, mib);
            }
        }
    }
    best.1
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not say).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One `copy_from_slice` of `src` into `dst`, as GB/s of bytes read
/// plus bytes written — the same accounting `dwt.bytes_per_px_computed`
/// uses, so the two divide into a fraction.
pub fn copy_gbps(src: &[f64], dst: &mut [f64]) -> f64 {
    let t0 = Instant::now();
    dst.copy_from_slice(src);
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&*dst);
    (2 * std::mem::size_of_val(src)) as f64 / 1e9 / s.max(1e-12)
}
