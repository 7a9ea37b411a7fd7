//! Process settings that take host noise out of the measurements (see
//! README.md, Noise). Linux only; elsewhere they do nothing.

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    const PR_SET_THP_DISABLE: c_int = 41;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    pub fn disable_thp() -> bool {
        let (on, unused): (c_ulong, c_ulong) = (1, 0);
        // SAFETY: PR_SET_THP_DISABLE takes four unsigned long arguments
        // and only sets a flag on the calling process.
        unsafe { prctl(PR_SET_THP_DISABLE, on, unused, unused, unused) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn disable_thp() -> bool {
        false
    }
}

/// Turn transparent huge pages off for this process. With THP set to
/// `always`, faults that zero or compact 2 MiB pages made whole runs
/// switch between two speeds up to 40% apart.
pub fn disable_thp() -> bool {
    sys::disable_thp()
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`, when
/// the OS reports them: time the hypervisor ran something else while a
/// virtual CPU of this machine had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Share of CPU time stolen since `start` (from [`cpu_ticks`]), in %.
pub fn steal_pct_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}
