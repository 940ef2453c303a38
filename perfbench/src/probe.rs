//! Box fingerprint and calibration probe, so that numbers from different
//! machines can be compared.

use std::hint::black_box;
use std::time::Instant;

/// Identifies the box and build a result came from.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Worker-pool width the library ran with.
    pub pool_width: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process's box and checkout.
    #[must_use]
    pub fn read(pool_width: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            pool_width,
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// `HEAD`'s commit, read from `.git` in the working directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Results of the fixed calibration work.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// ns per iteration of a dependent multiply–add–xorshift chain.
    pub alu_ns_per_op: f64,
    /// Bandwidth of copying a 32 MiB buffer, GiB/s.
    pub memcpy_gib_s: f64,
}

const ALU_OPS: u64 = 50_000_000;
const COPY_BYTES: usize = 32 << 20;
const REPS: usize = 3;

/// Runs the probe: each part three times, best time kept.
#[must_use]
pub fn calibrate() -> Calibration {
    let mut alu = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..ALU_OPS {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
            x ^= x >> 29;
        }
        black_box(x);
        alu = alu.min(t0.elapsed().as_secs_f64());
    }
    let src = vec![0x5Au8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut copy = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        copy = copy.min(t0.elapsed().as_secs_f64());
    }
    Calibration {
        alu_ns_per_op: alu * 1e9 / ALU_OPS as f64,
        memcpy_gib_s: COPY_BYTES as f64 / copy / f64::from(1u32 << 30),
    }
}

/// Runs [`calibrate`] in a child process (this executable with `--probe`),
/// so the probe's buffers stay out of this process's peak RSS.
///
/// # Errors
///
/// When the child cannot be run or prints something unexpected.
pub fn calibrate_in_child() -> Result<Calibration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--probe")
        .output()
        .map_err(|e| format!("probe child: {e}"))?;
    if !out.status.success() {
        return Err(format!("probe child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse::<f64>().ok())
            .ok_or_else(|| format!("probe output lacks {key}: {text}"))
    };
    Ok(Calibration {
        alu_ns_per_op: field("alu_ns_per_op")?,
        memcpy_gib_s: field("memcpy_gib_s")?,
    })
}

/// Prints the probe result in the form [`calibrate_in_child`] parses.
pub fn print_probe() {
    let c = calibrate();
    println!(
        "alu_ns_per_op={} memcpy_gib_s={}",
        c.alu_ns_per_op, c.memcpy_gib_s
    );
}

/// Peak resident set size (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
