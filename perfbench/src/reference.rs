//! Committed reference digests for the default and the held-out seed.
//!
//! Each line of `reference.txt` is `<workload> <seed> <key> <value>`. A
//! run on a seed that has reference lines compares every digest it
//! produced for its first unit of work against them.

use crate::report::Checks;

/// The seed used when `--seed` is not given. `reference.txt` holds its
/// digests and those of seed 7, a held-out seed never used to tune the
/// benchmark.
pub const DEFAULT_SEED: u64 = 1;

const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Reference `(key, value)` pairs of `workload` at `seed` in `text`.
fn lookup<'a>(text: &'a str, workload: &str, seed: u64) -> Vec<(&'a str, &'a str)> {
    let seed = seed.to_string();
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next(), f.next()) {
                (Some(w), Some(s), Some(k), Some(v)) if w == workload && s == seed => Some((k, v)),
                _ => None,
            }
        })
        .collect()
}

/// Compares `digests` against the committed reference of `workload` at
/// `seed`, one check per reference line; returns how many lines there
/// were (0 for seeds without a reference).
pub fn compare(
    workload: &str,
    seed: u64,
    digests: &[(String, String)],
    checks: &mut Checks,
) -> usize {
    compare_in(REFERENCE, workload, seed, digests, checks)
}

fn compare_in(
    text: &str,
    workload: &str,
    seed: u64,
    digests: &[(String, String)],
    checks: &mut Checks,
) -> usize {
    let expected = lookup(text, workload, seed);
    for &(key, want) in &expected {
        let got = digests.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        checks.check(got == Some(want), || {
            format!("{workload} seed {seed}: {key} = {got:?}, reference {want}")
        });
    }
    if !expected.is_empty() {
        checks.check(digests.len() == expected.len(), || {
            format!(
                "{workload} seed {seed}: {} digests produced, {} in the reference",
                digests.len(),
                expected.len()
            )
        });
    }
    expected.len()
}

/// Reference lines for `digests`, in the committed file's format.
pub fn lines(workload: &str, seed: u64, digests: &[(String, String)]) -> String {
    digests.iter().map(|(k, v)| format!("{workload} {seed} {k} {v}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# comment\ninfer 1 a 10\ninfer 1 b 0x2\ninfer 2 a 11\nfleet 1 a 5\n";

    fn d(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn matching_digests_pass() {
        let mut c = Checks::default();
        assert_eq!(compare_in(TEXT, "infer", 1, &d(&[("a", "10"), ("b", "0x2")]), &mut c), 2);
        assert_eq!((c.attempted(), c.failed()), (3, 0));
    }

    #[test]
    fn mismatches_and_gaps_fail() {
        let mut c = Checks::default();
        compare_in(TEXT, "infer", 1, &d(&[("a", "10"), ("b", "0x3")]), &mut c);
        assert_eq!(c.failed(), 1);
        let mut c = Checks::default();
        compare_in(TEXT, "infer", 1, &d(&[("a", "10")]), &mut c);
        assert_eq!(c.failed(), 2, "a missing key fails its line and the count");
        let mut c = Checks::default();
        compare_in(TEXT, "infer", 1, &d(&[("a", "10"), ("b", "0x2"), ("z", "1")]), &mut c);
        assert_eq!(c.failed(), 1, "an extra digest fails the count");
    }

    #[test]
    fn seeds_without_reference_check_nothing() {
        let mut c = Checks::default();
        assert_eq!(compare_in(TEXT, "infer", 3, &d(&[("a", "1")]), &mut c), 0);
        assert_eq!(c.attempted(), 0);
    }

    #[test]
    fn lines_round_trip() {
        let digests = d(&[("k1", "v1"), ("k2", "0xff")]);
        let text = lines("compile", 7, &digests);
        let mut c = Checks::default();
        assert_eq!(compare_in(&text, "compile", 7, &digests, &mut c), 2);
        assert_eq!(c.failed(), 0);
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
