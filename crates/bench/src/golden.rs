//! The one golden harness behind the golden-gated binaries
//! (`engine_perf`, `resilience`, `migration`, `service`,
//! `preemption`): their flag parser, the exact-bit float format, the
//! bless/compare/park step, and the run-time path resolver.
//!
//! A golden is a CSV of virtual-time observables with every float as
//! its bit pattern, committed under `crates/bench/goldens/` and
//! compared byte-for-byte.  `--bless` rewrites it; a mismatch parks
//! the actual bytes at `results/<name>.actual` and fails the run.

use std::collections::HashMap;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Exact-bit float formatting for goldens: equal strings iff equal
/// bits.
#[must_use]
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The workspace root given cargo's `CARGO_MANIFEST_DIR` (this crate's
/// manifest directory, `crates/bench`, when cargo launched the
/// process) and the current directory, which is taken as the root
/// otherwise.  Pure, so tests pin both cases.
#[must_use]
fn root_from(manifest_dir: Option<&Path>, cwd: &Path) -> PathBuf {
    manifest_dir.map_or_else(
        || cwd.to_path_buf(),
        |dir| dir.ancestors().nth(2).unwrap_or(dir).to_path_buf(),
    )
}

/// The workspace root of this run, resolved at run time: two levels
/// above cargo's `CARGO_MANIFEST_DIR` when cargo launched the process,
/// else the current directory.  A binary built in one checkout and run
/// from another reads and writes the checkout it runs in.
///
/// # Panics
/// Panics if the current directory cannot be read.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from);
    let cwd = std::env::current_dir().expect("read the current directory");
    root_from(manifest.as_deref(), &cwd)
}

/// `crates/bench/goldens` under the workspace root.
#[must_use]
fn goldens_dir() -> PathBuf {
    workspace_root().join("crates/bench/goldens")
}

/// Compare `actual` against the golden `goldens/name`, or rewrite it
/// when `bless` is set.  A mismatch parks `actual` at
/// `park/<name>.actual`.  Returns whether the run matches (always
/// `true` when blessing).
///
/// # Panics
/// Panics if the golden is missing (run with `--bless` to create it)
/// or a file cannot be written.
fn check_in(goldens: &Path, park: &Path, name: &str, actual: &str, bless: bool) -> bool {
    let path = goldens.join(name);
    if bless {
        fs::create_dir_all(goldens).expect("create goldens dir");
        fs::write(&path, actual).expect("write golden");
        println!("blessed {}", path.display());
        return true;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with --bless", path.display()));
    if expected == actual {
        println!("golden {name}: byte-identical");
        return true;
    }
    fs::create_dir_all(park).expect("create results dir");
    let parked = park.join(format!("{name}.actual"));
    fs::write(&parked, actual).expect("park actual");
    eprintln!(
        "golden {name}: MISMATCH — virtual-time output drifted; actual parked at {}",
        parked.display()
    );
    false
}

/// Compare `actual` against the committed golden `name`, or rewrite it
/// under `bless`; a mismatch parks `actual` at
/// `results/<name>.actual` ([`crate::results_dir`]).  Returns whether
/// the run matches.
///
/// # Panics
/// Panics if the golden is missing (run with `--bless` to create it)
/// or a file cannot be written.
#[must_use]
pub fn check(name: &str, actual: &str, bless: bool) -> bool {
    check_in(&goldens_dir(), &crate::results_dir(), name, actual, bless)
}

/// The command line of a golden-gated binary: `--smoke`, `--bless`,
/// `--enforce`, and the binary's own `--name value` flags.
#[derive(Debug)]
pub struct Args {
    /// CI-sized sweep; goldens are `smoke_*.csv` rather than `full_*`.
    pub smoke: bool,
    /// Rewrite the goldens instead of comparing against them.
    pub bless: bool,
    /// Also assert the binary's headline result.
    pub enforce: bool,
    usage: &'static str,
    names: &'static [&'static str],
    values: HashMap<String, String>,
}

impl Args {
    /// Parse `args` (program name excluded), accepting the value flags
    /// `--<name> <value>` for each of `names`.
    ///
    /// # Errors
    /// A positional argument, an unknown flag, or a flag without its
    /// value.
    fn parse(
        usage: &'static str,
        names: &'static [&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut out = Self {
            smoke: false,
            bless: false,
            enforce: false,
            usage,
            names,
            values: HashMap::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--bless" => out.bless = true,
                "--enforce" => out.enforce = true,
                _ => {
                    let name = arg
                        .strip_prefix("--")
                        .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
                    if !names.contains(&name) {
                        return Err(format!("unknown flag {arg}"));
                    }
                    let value = args
                        .next()
                        .ok_or_else(|| format!("missing value for {arg}"))?;
                    out.values.insert(name.to_string(), value);
                }
            }
        }
        Ok(out)
    }

    /// Parse the process arguments, accepting `--<name> <value>` for
    /// each of `names`.  A usage error (a positional argument, an
    /// unknown flag, a flag without its value) prints `error: <reason>`
    /// and `usage: <usage>` and exits with status 1.
    #[must_use]
    pub fn from_env(usage: &'static str, names: &'static [&'static str]) -> Self {
        Self::parse(usage, names, std::env::args().skip(1))
            .unwrap_or_else(|e| usage_exit(usage, &e))
    }

    /// `--<name>` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    /// The value does not parse as `T`.
    fn try_value<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.values.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{name}: {e}"))
        })
    }

    /// `--<name>` parsed as `T`, or `default` when absent; a malformed
    /// value is a usage error (see [`Args::from_env`]).
    #[must_use]
    pub fn value<T: FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.try_value(name, default)
            .unwrap_or_else(|e| usage_exit(self.usage, &e))
    }

    /// `"smoke"` or `"full"`: the prefix of this run's golden names.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Whether the run is the default sweep its golden pins
    /// (`at_defaults`); `--bless` on any other sweep is a usage error,
    /// since every row legitimately changes.
    #[must_use]
    pub fn pinned(&self, at_defaults: bool) -> bool {
        if self.bless && !at_defaults {
            eprintln!("error: --bless requires the default {}", self.value_flags());
            std::process::exit(1);
        }
        at_defaults
    }

    /// The value flags, as `--n/--seed`.
    fn value_flags(&self) -> String {
        let flags: Vec<String> = self.names.iter().map(|n| format!("--{n}")).collect();
        flags.join("/")
    }

    /// Gate `actual` against the golden `<mode>_<name>.csv` when the
    /// sweep is `pinned`, and turn the verdict into the exit code.
    #[must_use]
    pub fn gate(&self, pinned: bool, name: &str, actual: &str) -> ExitCode {
        if !pinned {
            println!("golden check skipped (non-default {})", self.value_flags());
            return ExitCode::SUCCESS;
        }
        if check(&format!("{}_{name}.csv", self.mode()), actual, self.bless) {
            ExitCode::SUCCESS
        } else {
            eprintln!("\nFAIL: {name} golden drifted (stale rows)");
            ExitCode::FAILURE
        }
    }
}

fn usage_exit(usage: &str, e: &str) -> ! {
    eprintln!("error: {e}");
    eprintln!("usage: {usage}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse("demo", &["n", "seed"], args.iter().map(|s| s.to_string()))
    }

    /// A fresh scratch directory, unique per process and test.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-golden-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bits_are_the_ieee_pattern() {
        assert_eq!(bits(1.0), "3ff0000000000000");
        assert_eq!(bits(-0.0), "8000000000000000");
        assert_ne!(bits(0.1 + 0.2), bits(0.3));
    }

    #[test]
    fn bless_match_and_mismatch() {
        let dir = temp_dir("check");
        let (goldens, park) = (dir.join("goldens"), dir.join("results"));
        assert!(check_in(&goldens, &park, "x.csv", "a,b\n1,2\n", true));
        assert_eq!(
            fs::read_to_string(goldens.join("x.csv")).unwrap(),
            "a,b\n1,2\n"
        );
        assert!(check_in(&goldens, &park, "x.csv", "a,b\n1,2\n", false));
        assert!(!park.join("x.csv.actual").exists(), "a match parks nothing");
        assert!(!check_in(&goldens, &park, "x.csv", "a,b\n1,3\n", false));
        assert_eq!(
            fs::read_to_string(park.join("x.csv.actual")).unwrap(),
            "a,b\n1,3\n"
        );
        // The golden itself is untouched by a mismatch.
        assert_eq!(
            fs::read_to_string(goldens.join("x.csv")).unwrap(),
            "a,b\n1,2\n"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn root_follows_cargo_else_the_current_directory() {
        let cwd = Path::new("/copy");
        assert_eq!(
            root_from(Some(Path::new("/ws/crates/bench")), cwd),
            Path::new("/ws")
        );
        assert_eq!(root_from(None, cwd), cwd);
    }

    #[test]
    fn flags_and_values_parse() {
        let args = parse(&["--smoke", "--n", "12", "--enforce"]).unwrap();
        assert!(args.smoke && args.enforce && !args.bless);
        assert_eq!(args.mode(), "smoke");
        assert_eq!(args.try_value("n", 24usize), Ok(12));
        assert_eq!(args.try_value("seed", 7u64), Ok(7));
        assert_eq!(parse(&[]).unwrap().mode(), "full");
        let bad = parse(&["--n", "x"]).unwrap();
        assert!(bad.try_value("n", 1usize).unwrap_err().starts_with("--n:"));
    }

    #[test]
    fn usage_errors_are_refused() {
        assert_eq!(
            parse(&["stray"]).unwrap_err(),
            "unexpected argument \"stray\""
        );
        assert_eq!(parse(&["--jobs", "3"]).unwrap_err(), "unknown flag --jobs");
        assert_eq!(parse(&["--n"]).unwrap_err(), "missing value for --n");
    }
}
