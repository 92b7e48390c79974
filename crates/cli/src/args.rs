//! Tiny dependency-free argument parsing for the `adalsh` CLI.
//!
//! Grammar: `adalsh <command> [positional…] [--flag value…]`. Flags are
//! always `--name value` pairs except boolean switches listed in
//! [`Args::switch`].

use std::collections::BTreeMap;

/// Parsed command line: a command, positionals, and `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    /// Fails on an empty argument list or a `--flag` without a value
    /// (unless it is a known boolean switch).
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        bool_switches: &[&str],
    ) -> Result<Self, String> {
        let mut iter = raw.into_iter().peekable();
        let command = iter.next().ok_or("missing command")?;
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if bool_switches.contains(&name) {
                    switches.push(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
            } else {
                positional.push(arg);
            }
        }
        Ok(Self {
            command,
            positional,
            flags,
            switches,
        })
    }

    /// The value of `--name`, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `default`.
    ///
    /// # Errors
    /// Fails if the value is present but does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v}: {e}")),
        }
    }

    /// Is the boolean switch `--name` present?
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Rejects any `--flag` or switch not named in `accepted`, so a typo
    /// or a flag the command does not take is an error instead of being
    /// silently ignored.
    ///
    /// # Errors
    /// Fails with `unknown flag --<name> for <command>` on the first
    /// flag (in name order) outside `accepted`.
    pub fn check_flags(&self, accepted: &[&[&str]]) -> Result<(), String> {
        let known = |name: &String| accepted.iter().any(|group| group.contains(&name.as_str()));
        match self.flags.keys().chain(&self.switches).find(|n| !known(n)) {
            Some(name) => Err(format!("unknown flag --{name} for {}", self.command)),
            None => Ok(()),
        }
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    /// Fails with `what` in the message if absent.
    pub fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()), &["verbose"])
    }

    #[test]
    fn parses_command_positionals_flags() {
        let a = parse(&["filter", "data.jsonl", "--k", "5", "--method", "adalsh"]).unwrap();
        assert_eq!(a.command, "filter");
        assert_eq!(a.positional, vec!["data.jsonl"]);
        assert_eq!(a.flag("k"), Some("5"));
        assert_eq!(a.flag("method"), Some("adalsh"));
        assert_eq!(a.flag("missing"), None);
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse(&["info", "--verbose", "d.jsonl"]).unwrap();
        assert!(a.switch("verbose"));
        assert_eq!(a.positional, vec!["d.jsonl"]);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["filter", "--k"]).is_err());
    }

    #[test]
    fn empty_args_is_error() {
        assert!(Args::parse(std::iter::empty(), &[]).is_err());
    }

    #[test]
    fn flag_or_parses_and_defaults() {
        let a = parse(&["x", "--k", "7"]).unwrap();
        assert_eq!(a.flag_or("k", 1usize).unwrap(), 7);
        assert_eq!(a.flag_or("missing", 3usize).unwrap(), 3);
        let bad = parse(&["x", "--k", "seven"]).unwrap();
        assert!(bad.flag_or("k", 1usize).is_err());
    }

    #[test]
    fn check_flags_rejects_unlisted_flags_and_switches() {
        let a = parse(&["filter", "d", "--k", "3", "--verbose"]).unwrap();
        assert!(a.check_flags(&[&["k"], &["verbose"]]).is_ok());
        assert_eq!(
            a.check_flags(&[&["k"]]).unwrap_err(),
            "unknown flag --verbose for filter"
        );
        assert_eq!(
            a.check_flags(&[&["verbose"]]).unwrap_err(),
            "unknown flag --k for filter"
        );
    }

    #[test]
    fn positional_error_names_the_slot() {
        let a = parse(&["filter"]).unwrap();
        let err = a.positional(0, "dataset path").unwrap_err();
        assert!(err.contains("dataset path"));
    }
}
