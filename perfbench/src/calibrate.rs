//! A fixed reference computation that measures how fast the host runs
//! this process right now.
//!
//! The benchmark's host is shared: other tenants slow its CPUs by a
//! quarter or more for minutes at a time, in CPU time as much as in
//! wall time. `run.py` times this kernel between campaigns and scales
//! each campaign's times by `reference / measured`, with the kernel
//! timed just before and just after the campaign, so a campaign run
//! while the host is slow reads about as it would at the reference
//! speed. The kernel uses no code of the repository, so a change to the
//! program cannot move it.
//!
//! Its work mixes the two kinds the campaigns do: a five-point `f64`
//! stencil sweep over an L2-sized grid, like the solvers' row sweeps,
//! and a sort plus a gather over an L2-sized key array, like SFC
//! ordering and the fragment index. Every thread does the same work.

use crate::rusage;
use std::time::Instant;

/// Grid side of the stencil part: 360² `f64` is about 1 MiB.
const GRID: usize = 360;
/// Keys of the integer part: 2^17 `u64` is 1 MiB.
const KEYS: usize = 1 << 17;
const ROUNDS: usize = 60;

fn stencil(seed: u64) -> f64 {
    let mut a: Vec<f64> = (0..GRID * GRID)
        .map(|i| ((i as u64 ^ seed) % 97) as f64)
        .collect();
    let mut b = a.clone();
    for _ in 0..ROUNDS {
        for y in 1..GRID - 1 {
            for x in 1..GRID - 1 {
                let i = y * GRID + x;
                b[i] = 0.2 * (a[i] + a[i - 1] + a[i + 1] + a[i - GRID] + a[i + GRID]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a.iter().sum()
}

fn sort_gather(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut acc = 0u64;
    for round in 0..ROUNDS as u64 {
        keys.sort_unstable();
        for i in 0..KEYS {
            let j = (keys[i] as usize ^ (round as usize * 7919)) & (KEYS - 1);
            acc = acc.wrapping_add(keys[j] >> 3);
            keys[i] ^= acc.rotate_left(round as u32 + 1);
        }
    }
    acc
}

/// Runs the kernel on `threads` threads; returns its wall and CPU
/// seconds as one JSON line.
pub fn run(threads: usize) -> Result<String, String> {
    let before = rusage::this_process().map_err(|e| format!("getrusage: {e}"))?;
    let start = Instant::now();
    let check = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|k| s.spawn(move || stencil(k).to_bits() ^ sort_gather(k + 7)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .fold(0, |a, b| a ^ b)
    });
    let wall = start.elapsed().as_secs_f64();
    let after = rusage::this_process().map_err(|e| format!("getrusage: {e}"))?;
    let cpu = after.user_s() + after.sys_s() - before.user_s() - before.sys_s();
    Ok(format!(
        "{{\"wall_s\": {wall}, \"cpu_s\": {cpu}, \"check\": {}}}",
        check & 0xffff
    ))
}
