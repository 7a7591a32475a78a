//! Facts about the host and the benchmark's own process, read from `/proc`.

/// Host facts stamped on every result, so that runs from different hosts
/// are not compared by mistake.
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub load1: f64,
    pub git: String,
}

impl Host {
    /// Reads the host facts; the load is the 1-minute average right now.
    pub fn capture(git: String) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|line| line.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(f64::NAN);
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            load1,
            git,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": \"{}\", \"nproc\": {}, \"load1\": {}, \"git\": \"{}\"}}",
            self.cpu_model.replace(['"', '\\'], "'"),
            self.nproc,
            self.load1,
            self.git.replace(['"', '\\'], "'"),
        )
    }
}

/// CPU seconds (user + system, all threads) this process has used so far,
/// from `/proc/self/stat` at its 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// Starts a fresh peak-RSS window: returns freed heap pages to the kernel,
/// as a fresh process would start without them, then resets `VmHWM` to the
/// current resident set.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers; it only releases
    // free memory at the heap top and in free chunks, leaving every live
    // allocation where it is.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets the peak-RSS mark (Linux >= 4.0).
    std::fs::write("/proc/self/clear_refs", "5").ok();
}
