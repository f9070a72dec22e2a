//! The one command-line flag parser every binary of the workspace uses.
//!
//! A command line is positionals plus `--flag [value]` pairs. Each command
//! names the flags it accepts; any other `--` token is an error naming it,
//! so a misspelt flag can never be silently ignored. Errors are plain
//! strings: the caller turns them into its usage message (exit 2).

use std::collections::HashMap;

/// Flag name (without the `--`) → value; a valueless flag maps to `""`.
pub type Flags = HashMap<String, String>;

/// Splits raw arguments into positionals and `--flag [value]` pairs,
/// refusing any flag not in `accepted`.
///
/// A flag followed by another `--`-prefixed token (or by nothing) is
/// *valueless* and maps to the empty string — `--json --threads 4` parses
/// as `json=""`, `threads="4"`, never `json="--threads"`.
pub fn parse_args(args: &[String], accepted: &[&str]) -> Result<(Vec<String>, Flags), String> {
    let (mut positional, mut flags) = (Vec::new(), Flags::new());
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        if !accepted.contains(&name) {
            return Err(format!("unknown flag '--{name}'"));
        }
        let value = args.next_if(|v| !v.starts_with("--")).cloned();
        flags.insert(name.to_string(), value.unwrap_or_default());
    }
    Ok((positional, flags))
}

/// `--key` parsed as a `T`; `None` when the flag is absent. A value that
/// does not parse is an error naming the flag and the value.
pub fn flag<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key} needs a {}, got '{v}'", std::any::type_name::<T>()))
        })
        .transpose()
}

/// `--key`'s value for a flag that must carry one; `None` when the flag
/// is absent, an error when it is present without a value.
pub fn value<'a>(flags: &'a Flags, key: &str) -> Result<Option<&'a str>, String> {
    match flags.get(key).map(String::as_str) {
        Some("") => Err(format!("--{key} needs a value")),
        v => Ok(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_flag_value_pairs() {
        let (pos, flags) = parse_args(
            &strings(&["mst", "--n", "64", "--seed", "9"]),
            &["n", "seed"],
        )
        .unwrap();
        assert_eq!(pos, vec!["mst"]);
        assert_eq!(flags.get("n").map(String::as_str), Some("64"));
        assert_eq!(flags.get("seed").map(String::as_str), Some("9"));
    }

    #[test]
    fn parse_rejects_flag_as_swallowed_value() {
        // the old parser read this as json="--threads" and dropped --threads
        let (_, flags) = parse_args(
            &strings(&["--json", "--threads", "4"]),
            &["json", "threads"],
        )
        .unwrap();
        assert_eq!(flags.get("json").map(String::as_str), Some(""));
        assert_eq!(flags.get("threads").map(String::as_str), Some("4"));
    }

    #[test]
    fn parse_valueless_trailing_flag() {
        let (pos, flags) = parse_args(&strings(&["run", "--json"]), &["json"]).unwrap();
        assert_eq!(pos, vec!["run"]);
        assert_eq!(flags.get("json").map(String::as_str), Some(""));
    }

    #[test]
    fn parse_rejects_unknown_flag_naming_it() {
        // a misspelt flag used to be ignored: `--tread 4` ran single-threaded
        let err = parse_args(&strings(&["bfs", "--tread", "4"]), &["threads"]).unwrap_err();
        assert_eq!(err, "unknown flag '--tread'");
        let err = parse_args(&strings(&["--smok"]), &["smoke"]).unwrap_err();
        assert_eq!(err, "unknown flag '--smok'");
    }

    #[test]
    fn cli_flags_parse() {
        let args: Vec<String> = ["--json", "out.json", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, flags) = parse_args(&args, &["json", "threads"]).unwrap();
        assert_eq!(flag::<usize>(&flags, "threads").unwrap().unwrap_or(1), 4);
        assert_eq!(value(&flags, "json").unwrap(), Some("out.json"));
        let (_, none) = parse_args(&[], &["json", "threads"]).unwrap();
        assert_eq!(flag::<usize>(&none, "threads").unwrap().unwrap_or(1), 1);
        assert_eq!(value(&none, "json").unwrap(), None);
    }

    #[test]
    fn cli_json_rejects_flag_as_value() {
        // the old parser silently returned "--threads" as the json path
        let args: Vec<String> = ["--json", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, flags) = parse_args(&args, &["json", "threads"]).unwrap();
        assert_eq!(
            value(&flags, "json"),
            Err("--json needs a value".to_string())
        );
    }
}
