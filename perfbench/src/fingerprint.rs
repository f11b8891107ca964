//! Virtual-time fingerprints: the exact observables of one simulated
//! run, compared against the set committed with the benchmark.
//!
//! Fault-free runs are a function of `(n, p, machine)` only — operand
//! values never reach the virtual clock — so their fingerprints hold
//! for every seed (`*` in the file).  Runs under a seeded lossy fault
//! plan depend on the seed; the file holds them for the seeds the
//! benchmark's tests use, and any other seed is held to run-to-run
//! determinism within the process instead (see `Checker`).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use algos::SimOutcome;

/// `T_p` bits, messages, words and Σ idle bits of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub tp_bits: u64,
    pub msgs: u64,
    pub words: u64,
    pub idle_bits: u64,
}

impl Fingerprint {
    #[must_use]
    pub fn of(out: &SimOutcome) -> Self {
        Self {
            tp_bits: out.t_parallel.to_bits(),
            msgs: out.total_messages(),
            words: out.total_words(),
            idle_bits: out.total_idle().to_bits(),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}\t{}\t{}\t{:016x}",
            self.tp_bits, self.msgs, self.words, self.idle_bits
        )
    }
}

/// Key: (workload, op, seed) with seed `None` meaning every seed.
type Key = (String, String, Option<u64>);

/// The committed fingerprint table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    entries: BTreeMap<Key, Fingerprint>,
}

fn parse_line(line: &str) -> Option<(Key, Fingerprint)> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 7 {
        return None;
    }
    let seed = match f[2] {
        "*" => None,
        s => Some(s.parse().ok()?),
    };
    let fp = Fingerprint {
        tp_bits: u64::from_str_radix(f[3], 16).ok()?,
        msgs: f[4].parse().ok()?,
        words: f[5].parse().ok()?,
        idle_bits: u64::from_str_radix(f[6], 16).ok()?,
    };
    Some(((f[0].to_string(), f[1].to_string(), seed), fp))
}

impl Table {
    /// Load a table; with `allow_missing`, a missing file is an empty
    /// table (for blessing the first entries).
    ///
    /// # Errors
    /// A missing file (unless allowed) or a malformed entry.
    pub fn load(path: &Path, allow_missing: bool) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) if allow_missing && !path.exists() => return Ok(Self::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = parse_line(line)
                .ok_or_else(|| format!("{}:{}: malformed fingerprint", path.display(), i + 1))?;
            entries.insert(k, v);
        }
        Ok(Self { entries })
    }

    #[must_use]
    pub fn get(&self, workload: &str, op: &str, seed: u64) -> Option<Fingerprint> {
        let k = |s| (workload.to_string(), op.to_string(), s);
        self.entries
            .get(&k(Some(seed)))
            .or_else(|| self.entries.get(&k(None)))
            .copied()
    }

    /// Record `fp` for (workload, op), seed-scoped when `seed` is set.
    pub fn insert(&mut self, workload: &str, op: &str, seed: Option<u64>, fp: Fingerprint) {
        self.entries
            .insert((workload.to_string(), op.to_string(), seed), fp);
    }

    /// Write the table back, sorted, with a header.
    ///
    /// # Errors
    /// Propagates the write error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut s =
            String::from("# workload\top\tseed\tt_parallel_bits\tmsgs\twords\tsum_idle_bits\n");
        for ((w, op, seed), fp) in &self.entries {
            let seed = seed.map_or("*".to_string(), |s| s.to_string());
            s.push_str(&format!("{w}\t{op}\t{seed}\t{fp}\n"));
        }
        std::fs::write(path, s)
    }
}

/// Checks each run of an op against the committed table, falling back
/// to the op's first fingerprint in this process when the table has no
/// entry for this seed (lossy ops at a seed nobody blessed).
#[derive(Debug)]
pub struct Checker {
    table: Table,
    workload: &'static str,
    seed: u64,
    first: BTreeMap<String, Fingerprint>,
    /// Op keys whose fingerprints came from no committed entry.
    pub unpinned: Vec<String>,
}

impl Checker {
    #[must_use]
    pub fn new(table: Table, workload: &'static str, seed: u64) -> Self {
        Self {
            table,
            workload,
            seed,
            first: BTreeMap::new(),
            unpinned: Vec::new(),
        }
    }

    /// `Ok` when `fp` matches; `Err` names the mismatch.
    ///
    /// # Errors
    /// The expected and actual fingerprints.
    pub fn check(&mut self, op: &str, fp: Fingerprint) -> Result<(), String> {
        let expected = match self.table.get(self.workload, op, self.seed) {
            Some(e) => e,
            None => *self.first.entry(op.to_string()).or_insert_with(|| {
                self.unpinned.push(op.to_string());
                fp
            }),
        };
        if expected == fp {
            Ok(())
        } else {
            Err(format!(
                "{}/{op}: fingerprint {fp} != expected {expected}",
                self.workload
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let fp = Fingerprint {
            tp_bits: 0x4059_0000_0000_0000,
            msgs: 12,
            words: 480,
            idle_bits: 7,
        };
        let line = format!("w\tcannon/p4/n8\t*\t{fp}");
        let (k, back) = parse_line(&line).unwrap();
        assert_eq!(back, fp);
        assert_eq!(k.2, None);
        assert!(parse_line("w\top\tx\t0\t0\t0\t0").is_none());
    }

    #[test]
    fn seed_entries_override_wildcards_and_misses_pin_the_first_run() {
        let fp = |m| Fingerprint {
            tp_bits: 1,
            msgs: m,
            words: 1,
            idle_bits: 1,
        };
        let mut t = Table::default();
        t.insert("w", "a", None, fp(1));
        t.insert("w", "a", Some(5), fp(2));
        assert_eq!(t.get("w", "a", 5), Some(fp(2)));
        assert_eq!(t.get("w", "a", 6), Some(fp(1)));
        let mut c = Checker::new(t, "w", 6);
        assert!(c.check("a", fp(1)).is_ok());
        assert!(c.check("a", fp(2)).is_err());
        assert!(c.check("b", fp(3)).is_ok());
        assert!(c.check("b", fp(4)).is_err());
        assert_eq!(c.unpinned, vec!["b".to_string()]);
    }
}
