//! Host diagnostics recorded with every run but never used as metrics:
//! they let a reader of two runs tell a slow host phase from a program
//! change.

use std::path::Path;
use std::time::Instant;

/// Logical CPUs visible to the process.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, if the kernel exposes it.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall time in ms of a fixed reference kernel that touches no program
/// code. Timed before and after each workload, it tracks how fast the
/// host is at that moment. It has two parts, because the host slows
/// different code by different amounts: a strided read-modify-write walk
/// over a 4 MiB buffer (memory), and branchy, allocation-heavy work on
/// short sorted vectors, the kind of code that slows most while another
/// tenant shares the core.
pub fn reference_kernel_ms() -> f64 {
    const WORDS: usize = 1 << 19;
    let mut buffer: Vec<u64> = (0..WORDS as u64).collect();
    let start = Instant::now();
    let mut acc = 0x9e37_79b9_7f4a_7c15_u64;
    for round in 0..12 {
        let mut i = round;
        for _ in 0..WORDS {
            i = (i + 4099) & (WORDS - 1);
            acc = (acc ^ buffer[i])
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .rotate_left(17);
            buffer[i] = acc;
        }
    }
    let mut state = acc | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..24_000 {
        let len = 8 + (next() % 120) as usize;
        let mut values: Vec<u64> = (0..len).map(|_| next() % 512).collect();
        values.sort_unstable();
        values.dedup();
        for pair in values.windows(2) {
            if pair[1] - pair[0] > 3 {
                acc = acc.wrapping_add(pair[0]);
            } else {
                acc ^= pair[1];
            }
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The filesystem type of the mount holding `path`, from the longest
/// matching mount point in `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(absolute) = std::fs::canonicalize(path) else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            absolute
                .starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit_hash() -> String {
    read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned())
}

fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}
