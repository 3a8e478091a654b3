//! Small measurement helpers: quantiles, steal-corrected time, peak
//! memory and bit-exact fingerprints of results.

use ssta_core::CanonicalForm;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median). `NaN` for an empty slice;
/// infinite entries (failed requests) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi] == v[lo] {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Machine-wide CPU ticks from `/proc/stat`: time spent running
/// (user, nice, system, irq, softirq) and time the hypervisor stole
/// while a virtual CPU wanted to run.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        Some(CpuTicks {
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
        })
    }
}

/// A wall-clock timer that also reports its time with hypervisor steal
/// taken out.
///
/// On a shared virtual machine the hypervisor takes away a share of the
/// CPU that drifts from a few percent to a third within minutes, and
/// every wall time stretches with it. The corrected time scales the wall
/// time by the share of demanded CPU time the machine actually got over
/// the interval, `busy / (busy + steal)`: the time the interval would
/// have taken had nothing been stolen. Without `/proc/stat` it is the
/// wall time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
    ticks: Option<CpuTicks>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            ticks: CpuTicks::now(),
            started: std::time::Instant::now(),
        }
    }

    /// Uncorrected seconds since start.
    pub fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Share of the CPU time demanded since start that was not stolen.
    pub fn kept_share(&self) -> f64 {
        match (self.ticks, CpuTicks::now()) {
            (Some(a), Some(b)) => {
                let busy = b.busy.saturating_sub(a.busy) as f64;
                let steal = b.steal.saturating_sub(a.steal) as f64;
                if busy + steal > 0.0 {
                    busy / (busy + steal)
                } else {
                    1.0
                }
            }
            _ => 1.0,
        }
    }

    /// Steal-corrected seconds since start.
    pub fn seconds(&self) -> f64 {
        let wall = self.wall();
        wall * self.kept_share()
    }
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat`; `NaN` where unavailable.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Resets this process's peak resident set size to its current one, so
/// that [`peak_rss_mb`] covers only what runs after the call. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Every coefficient of a canonical form as raw bits: two forms are
/// bit-identical exactly when these are equal.
pub fn form_bits(form: &CanonicalForm) -> Vec<u64> {
    std::iter::once(form.mean())
        .chain(form.globals().iter().copied())
        .chain(form.locals().iter().copied())
        .chain(std::iter::once(form.random()))
        .map(f64::to_bits)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
