//! The host probe: how fast the shared box ran during a run.
//!
//! The box the benchmark runs on gives it a share of a host whose speed
//! moves with its neighbours' load: a fixed CPU loop runs up to 1.7×
//! slower for seconds to minutes at a time, with no steal time and no
//! descheduling to show for it. Raw host times of one workload then
//! spread by 20–40% between runs of the same code, which no amount of
//! averaging inside a 20–45 s run removes.
//!
//! The probe is a fixed piece of work shaped like the lab's own
//! (string-keyed ordered maps, a hash map, many small allocations, a
//! deep clone and a byte-wise hash). The one-worker passes run it on
//! the measuring thread between experiments, outside the experiments'
//! timings, and the set-up runs it between set-ups. Its time against
//! [`REFERENCE_MS`] is the host speed of the moment; the gated time
//! metrics are reported at the reference speed, each experiment scaled
//! by the speed measured next to it and the set-ups by the speed
//! measured between them. The probe is part of the benchmark, not of
//! the program: a change to the program moves the experiments, and the
//! probe only as far as it leaves the shared allocator and caches in
//! another state (see `README.md`, "Host speed").

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The probe's median time on the 2-core Xeon box the benchmark was
/// written on. A run whose probe takes this long runs at speed 1.
pub const REFERENCE_MS: f64 = 2.5;

/// In the passes, a probe runs after the first experiment that ends at
/// least this much experiment time after the last probe: after about
/// every fourth small experiment (about 5% of a pass's time) and after
/// every replication storm.
pub const INTERVAL_MS: f64 = 40.0;

/// Probe runs before each set-up and after the last one.
pub const SETUP_BLOCK: usize = 4;

/// Neighbours on each side whose median gives the local speed in a
/// pass (see [`at_reference`]).
pub const WINDOW: usize = 5;

/// The probe's work. Returns a digest of what it computed, the same on
/// every call.
pub fn work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut objects: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut index: HashMap<u64, String> = HashMap::new();
    for _ in 0..2000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("ns/pod-{}", x % 5000);
        objects.insert(key.clone(), vec![x as u8; 64 + (x % 448) as usize]);
        index.insert(x % 3000, key);
    }
    let copy = objects.clone();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in &copy {
        for b in k.bytes().chain(v.iter().copied()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    for (k, key) in &index {
        if objects.contains_key(key) {
            h ^= *k;
        }
    }
    h
}

/// Times one probe run (ms).
pub fn run_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(work());
    t.elapsed().as_secs_f64() * 1e3
}

/// The host speed from probe times (ms): [`REFERENCE_MS`] over their
/// median, above 1 when the box ran faster than the reference. `None`
/// without samples.
pub fn speed(samples_ms: &[f64]) -> Option<f64> {
    crate::stats::median(samples_ms).map(|m| REFERENCE_MS / m)
}

/// Each experiment's time at the reference host speed. `probes` holds,
/// in order, the number of experiments run before each probe run and the
/// probe's time (ms). An experiment is scaled by the speed of the probe
/// run that follows it (the last one, for experiments after it), taken
/// as the median of that run and its [`WINDOW`] neighbours on each side,
/// so that one disturbed probe run moves nothing. `None` without probe
/// runs.
pub fn at_reference(times_ms: &[f64], probes: &[(usize, f64)]) -> Option<Vec<f64>> {
    let local = |k: usize| {
        let near: Vec<f64> = probes[k.saturating_sub(WINDOW)..(k + WINDOW + 1).min(probes.len())]
            .iter()
            .map(|p| p.1)
            .collect();
        speed(&near)
    };
    let mut k = 0;
    let mut s = local(0)?;
    times_ms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            while probes[k].0 <= i && k + 1 < probes.len() {
                k += 1;
                s = local(k)?;
            }
            Some(t * s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_the_same_work_every_call() {
        assert_eq!(work(), work());
    }

    #[test]
    fn speed_is_reference_over_the_median() {
        assert_eq!(speed(&[]), None);
        let s = speed(&[5.0, 2.0, 5.0]).unwrap();
        assert!((s - 0.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn experiments_scale_by_the_probe_runs_after_them() {
        assert_eq!(at_reference(&[1.0], &[]), None);
        // A probe run after each of 24 experiments: the first 12 at half
        // the reference speed, the rest at the reference speed; a 25th
        // experiment after the last probe run.
        let probes: Vec<(usize, f64)> = (0..24)
            .map(|k| (k + 1, if k < 12 { 2.0 } else { 1.0 } * REFERENCE_MS))
            .collect();
        let got = at_reference(&[10.0; 25], &probes).unwrap();
        assert_eq!(got.len(), 25);
        // Windows wholly inside one half, and the tail after the last run.
        assert!(got[..=6].iter().all(|&t| t == 5.0), "{got:?}");
        assert!(got[17..].iter().all(|&t| t == 10.0), "{got:?}");
    }
}
