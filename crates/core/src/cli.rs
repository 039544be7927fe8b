//! Strict command-line argument parsing for `avf-stressmark`.
//!
//! The old ad-hoc parser silently ignored unrecognized `--flags`, so a
//! typo like `--ci-taget 0.05` ran a full *default* campaign and
//! reported success — the worst possible failure mode for a
//! measurement tool. This parser is spec-driven: every command declares
//! its flags (and whether each takes a value), unknown flags are hard
//! errors, and boolean flags never swallow the following token.
//!
//! [`venue`] is the one place the commands that can run remotely
//! (`search`, `validate`) decide *where* they run, so a flag that would
//! have no effect on the chosen venue is an error for both alike.

use std::fmt;

use avf_service::AuthKey;

use crate::SearchBackend;

/// One flag a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Whether the flag consumes the next token as its value.
    pub takes_value: bool,
}

/// Declares a value-taking flag.
#[must_use]
pub const fn value_flag(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

/// Declares a boolean (presence-only) flag.
#[must_use]
pub const fn bool_flag(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// A parse failure, formatted for the CLI's `error:` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parsed arguments of one command.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `argv` (the tokens *after* the command name) against the
    /// command's flag spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for an unknown flag or a value-taking
    /// flag with no value.
    pub fn parse(argv: &[String], spec: &[FlagSpec]) -> Result<Args, ParseError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(name) = token.strip_prefix("--") {
                let Some(flag) = spec.iter().find(|f| f.name == name) else {
                    let mut msg = format!("unknown flag `--{name}`");
                    if let Some(near) = closest(name, spec) {
                        msg.push_str(&format!(" (did you mean `--{near}`?)"));
                    }
                    return Err(ParseError(msg));
                };
                let value = if flag.takes_value {
                    let v = argv
                        .get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ParseError(format!("flag `--{name}` expects a value")))?;
                    i += 1;
                    Some(v.clone())
                } else {
                    None
                };
                args.flags.push((name.to_owned(), value));
            } else {
                args.positional.push(token.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// Positional arguments, in order.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of flag `name` (last occurrence wins).
    #[must_use]
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether flag `name` appeared at all.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Parses flag `name` as a `u64`, defaulting when absent.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the value is not a number.
    pub fn parse_u64(&self, name: &str, default: u64) -> Result<u64, ParseError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// Parses flag `name` as a CI half-width target in (0, 0.5).
    ///
    /// Wilson half-widths never exceed 0.5 (the no-data interval is
    /// [0, 1]), so a target of 0.5 or more is satisfied by zero trials
    /// — a vacuous "validation" this refuses to run.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for a non-numeric or out-of-range value.
    pub fn parse_f64_opt(&self, name: &str) -> Result<Option<f64>, ParseError> {
        match self.flag(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0 && *x < 0.5)
                .map(Some)
                .ok_or(ParseError(format!(
                    "--{name} expects a fraction in (0, 0.5), got `{v}`"
                ))),
        }
    }
}

impl Args {
    /// Loads the shared frame-authentication key named by
    /// `--auth-key-file`, if the flag is present.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the key file cannot be loaded.
    pub fn auth_key(&self) -> Result<Option<AuthKey>, ParseError> {
        match self.flag("auth-key-file") {
            None => Ok(None),
            Some(path) => AuthKey::load(std::path::Path::new(path))
                .map(Some)
                .map_err(ParseError),
        }
    }

    /// The tenant name for broker-facing commands: `--tenant`, falling
    /// back to the login user so ad-hoc runs still get a stable lane.
    #[must_use]
    pub fn tenant(&self) -> String {
        self.flag("tenant")
            .map(str::to_owned)
            .unwrap_or_else(|| std::env::var("USER").unwrap_or_else(|_| "default".to_owned()))
    }
}

/// Parses a comma-separated `host:port` list given to `--workers`.
///
/// # Errors
///
/// Returns a [`ParseError`] when the list names no address.
pub fn worker_addrs(list: &str) -> Result<Vec<String>, ParseError> {
    let addrs: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(str::to_owned)
        .collect();
    if addrs.is_empty() {
        return Err(ParseError(
            "--workers expects a comma-separated list of host:port".to_owned(),
        ));
    }
    Ok(addrs)
}

/// Picks where a command runs — in-process threads, `serve` workers, or
/// a broker — from `--threads`, `--workers`, `--broker`, `--tenant` and
/// `--auth-key-file`. Flags the chosen venue would silently ignore are
/// errors; `local_work` names what a local run does (e.g. "search"),
/// for the error message.
///
/// # Errors
///
/// Returns a [`ParseError`] for conflicting flags, an empty worker
/// list, a bad `--threads` value, or an unloadable key file.
pub fn venue(args: &Args, local_work: &str) -> Result<SearchBackend, ParseError> {
    let auth = args.auth_key()?;
    let no_threads_with = |remote: &str| {
        if !args.has("threads") {
            return Ok(());
        }
        // Accepting the flag but letting it do nothing would be the
        // exact silent-no-effect failure the strict parser exists
        // to prevent.
        Err(ParseError(format!(
            "--threads selects local worker threads and has no effect with \
             {remote}; set --threads on each `serve` process instead"
        )))
    };
    if let Some(addr) = args.flag("broker") {
        if args.has("workers") {
            return Err(ParseError(
                "--broker and --workers are mutually exclusive; the broker owns the \
                 worker fleet, pass --workers to the `broker` process instead"
                    .to_owned(),
            ));
        }
        no_threads_with("--broker")?;
        return Ok(SearchBackend::Broker {
            addr: addr.to_owned(),
            tenant: args.tenant(),
            auth,
        });
    }
    if let Some(list) = args.flag("workers") {
        no_threads_with("--workers")?;
        return Ok(SearchBackend::Workers {
            addrs: worker_addrs(list)?,
            auth,
        });
    }
    if auth.is_some() {
        return Err(ParseError(format!(
            "--auth-key-file authenticates worker/broker connections and has no \
             effect on a local {local_work}; pass --workers or --broker"
        )));
    }
    Ok(SearchBackend::Local {
        threads: args.parse_u64("threads", 0)? as usize,
    })
}

/// The closest flag name within an edit distance a typo plausibly
/// produces, for "did you mean" hints.
fn closest(name: &str, spec: &[FlagSpec]) -> Option<&'static str> {
    spec.iter()
        .map(|f| (f.name, edit_distance(name, f.name)))
        .filter(|&(_, d)| d <= 2)
        .min_by_key(|&(_, d)| d)
        .map(|(n, _)| n)
}

/// Plain Levenshtein distance (flag names are tiny; O(nm) is free).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| (*s).to_owned()).collect()
    }

    const SPEC: &[FlagSpec] = &[
        value_flag("ci-target"),
        value_flag("injections"),
        value_flag("seed"),
        bool_flag("tsv"),
    ];

    #[test]
    fn known_flags_parse() {
        let args = Args::parse(&argv(&["--injections", "500", "--tsv"]), SPEC).unwrap();
        assert_eq!(args.flag("injections"), Some("500"));
        assert!(args.has("tsv"));
        assert_eq!(args.parse_u64("injections", 0).unwrap(), 500);
        assert_eq!(args.parse_u64("seed", 42).unwrap(), 42);
    }

    #[test]
    fn unknown_flags_are_errors_with_a_hint() {
        // The motivating regression: a typo must not silently run a
        // full default campaign.
        let err = Args::parse(&argv(&["--ci-taget", "0.05"]), SPEC).unwrap_err();
        assert!(err.0.contains("unknown flag `--ci-taget`"), "{err}");
        assert!(err.0.contains("did you mean `--ci-target`"), "{err}");

        let err = Args::parse(&argv(&["--frobnicate"]), SPEC).unwrap_err();
        assert!(err.0.contains("unknown flag `--frobnicate`"), "{err}");
        assert!(!err.0.contains("did you mean"), "{err}");
    }

    #[test]
    fn boolean_flags_do_not_swallow_values() {
        let args = Args::parse(&argv(&["--tsv", "extra"]), SPEC).unwrap();
        assert!(args.has("tsv"));
        assert_eq!(args.positional(), &["extra".to_owned()]);
    }

    #[test]
    fn value_flags_require_values() {
        let err = Args::parse(&argv(&["--seed"]), SPEC).unwrap_err();
        assert!(err.0.contains("expects a value"), "{err}");
        let err = Args::parse(&argv(&["--seed", "--tsv"]), SPEC).unwrap_err();
        assert!(err.0.contains("expects a value"), "{err}");
    }

    #[test]
    fn last_duplicate_wins() {
        let args = Args::parse(&argv(&["--seed", "1", "--seed", "2"]), SPEC).unwrap();
        assert_eq!(args.flag("seed"), Some("2"));
    }

    #[test]
    fn ci_target_range_is_enforced() {
        let args = Args::parse(&argv(&["--ci-target", "0.6"]), SPEC).unwrap();
        assert!(args.parse_f64_opt("ci-target").is_err());
        let args = Args::parse(&argv(&["--ci-target", "0.05"]), SPEC).unwrap();
        assert_eq!(args.parse_f64_opt("ci-target").unwrap(), Some(0.05));
    }
}
