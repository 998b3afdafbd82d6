//! The host-speed probe: a fixed piece of work, written here and sharing
//! no code with the program, whose time tracks how fast the host runs
//! at the moment.
//!
//! On a shared host the same job runs up to 1.5x slower for seconds or
//! minutes at a time, and every kind of work slows by about the same
//! factor. The benchmark times this probe beside the measured work and
//! scales each measured time by `reference / probe time`, which cancels
//! that factor. The probe does what the program does, in small: it
//! formats and parses a text edge list, sorts it into a CSR, and counts
//! triangles by merging sorted neighbour lists, on fresh allocations.
//!
//! `perfbench-layers calib` reads one line per probe from stdin and
//! answers each with `<nanoseconds> <triangles>`; it exits at EOF.

use std::io::{BufRead, Write};
use std::time::Instant;

/// Vertices of the probe graph.
const N: u32 = 1 << 13;
/// Edge draws of the probe graph (duplicates and loops are dropped).
const M: usize = 80_000;
/// Fixed seed: the probe never depends on the workload's seed.
const SEED: u64 = 0x5EED_CA11_B7A7_E000;

fn next(state: &mut u64) -> u64 {
    // xorshift64*
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One probe: returns the triangle count of the probe graph.
pub fn probe() -> u64 {
    let mut state = SEED;
    let mut text = Vec::with_capacity(M * 12);
    for _ in 0..M {
        let r = next(&mut state);
        // Skewed endpoints: a few hubs, as in the program's graphs.
        let u = ((r & 0xFFFF_FFFF) % u64::from(N)) as u32;
        let v = (((r >> 32) % u64::from(N)) as u32) >> ((r >> 60) & 3);
        writeln!(text, "{u} {v}").expect("write to a Vec");
    }
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(M);
    for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let mut it = line
            .split(|&b| b == b' ')
            .map(|f| f.iter().fold(0u32, |acc, &d| acc * 10 + u32::from(d - b'0')));
        let (u, v) = (it.next().unwrap_or(0), it.next().unwrap_or(0));
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    // Oriented CSR: each edge stored once, from its lower endpoint.
    let mut offsets = vec![0usize; N as usize + 1];
    for &(u, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..N as usize {
        offsets[i + 1] += offsets[i];
    }
    let adj: Vec<u32> = edges.iter().map(|&(_, v)| v).collect();
    let row = |u: u32| &adj[offsets[u as usize]..offsets[u as usize + 1]];
    let mut triangles = 0u64;
    for &(u, v) in &edges {
        let (a, b) = (row(u), row(v));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    triangles += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    triangles
}

/// Serves probes on stdin/stdout until EOF.
pub fn run() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        line.map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let triangles = std::hint::black_box(probe());
        let ns = t0.elapsed().as_nanos();
        writeln!(out, "{ns} {triangles}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_finds_triangles() {
        let t = probe();
        assert!(t > 0);
        assert_eq!(t, probe());
    }
}
