//! `repolint.toml` parsing.
//!
//! The build environment vendors no `toml` crate, so the config format is
//! the small TOML subset the file actually needs: `[run]` / `[rules.CODE]`
//! section headers, `key = "string"` and `key = ["a", "b"]` assignments,
//! `#` comments. Anything else is a hard error so typos cannot silently
//! disable a rule.

use crate::diag::Severity;
use std::collections::BTreeMap;

/// All rule codes the engine knows about.
pub const RULES: &[&str] = &[
    "DET001", "DET002", "DET003", "DET004", "PANIC001", "FP001", "UNIT001", "API001", "CONC001",
    "CONC002", "CONC003", "CONC004", "PERF001", "PERF002", "PERF003", "PERF004",
];

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// Effective severity.
    pub severity: Severity,
    /// When set, the rule only applies to files of these crates.
    pub crates: Option<Vec<String>>,
    /// FP001: path substrings that put a file in scope.
    pub path_contains: Vec<String>,
    /// FP001: function-name substrings that put a function in scope.
    pub fn_contains: Vec<String>,
    /// DET004 / PERF00x: reachability roots, as `Type::method` or bare
    /// function names. DET004 always adds binary `main`s on top; the
    /// PERF rules deliberately do not (binaries print and allocate as
    /// their job — only the replay entry points define hotness). Empty
    /// unless configured; a name that matches no workspace function is
    /// a config error when the rule runs.
    pub entry_points: Vec<String>,
}

impl RuleCfg {
    fn new(code: &str) -> RuleCfg {
        let scoped = code == "FP001";
        RuleCfg {
            severity: Severity::Error,
            crates: None,
            path_contains: if scoped {
                vec!["checksum".to_string(), "verify".to_string()]
            } else {
                Vec::new()
            },
            fn_contains: if scoped {
                vec!["checksum".to_string(), "verify".to_string(), "residual".to_string()]
            } else {
                Vec::new()
            },
            entry_points: Vec::new(),
        }
    }
}

/// Whole-run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Repo-relative path prefixes to skip entirely.
    pub excludes: Vec<String>,
    /// Per-rule settings, keyed by rule code.
    pub rules: BTreeMap<String, RuleCfg>,
}

impl Default for Config {
    fn default() -> Config {
        let mut rules = BTreeMap::new();
        for code in RULES {
            rules.insert((*code).to_string(), RuleCfg::new(code));
        }
        Config { excludes: vec!["crates/compat".to_string(), "target".to_string()], rules }
    }
}

impl Config {
    /// Look up a rule's config (every known rule is always present).
    pub fn rule(&self, code: &str) -> &RuleCfg {
        &self.rules[code]
    }

    /// Parse the config file text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let mut line = raw.trim().to_string();
            let lineno = n + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Multi-line arrays: join until the brackets balance.
            while line.contains('[')
                && !line.starts_with('[')
                && line.matches('[').count() > line.matches(']').count()
            {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array"));
                };
                let cont = cont.trim();
                if !cont.starts_with('#') {
                    line.push_str(cont);
                }
            }
            let line = line.as_str();
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: malformed section header"))?;
                if name != "run" {
                    let code = name
                        .strip_prefix("rules.")
                        .ok_or_else(|| format!("line {lineno}: unknown section [{name}]"))?;
                    if !cfg.rules.contains_key(code) {
                        return Err(format!("line {lineno}: unknown rule {code}"));
                    }
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "run" => match key {
                    "exclude" => cfg.excludes = parse_list(value, lineno)?,
                    _ => return Err(format!("line {lineno}: unknown [run] key {key}")),
                },
                s if s.starts_with("rules.") => {
                    let code = &s["rules.".len()..];
                    let Some(rule) = cfg.rules.get_mut(code) else {
                        return Err(format!("line {lineno}: unknown rule {code}"));
                    };
                    match key {
                        "severity" => {
                            let v = parse_string(value, lineno)?;
                            rule.severity = Severity::parse(&v)
                                .ok_or_else(|| format!("line {lineno}: bad severity {v:?}"))?;
                        }
                        "crates" => rule.crates = Some(parse_list(value, lineno)?),
                        "path_contains" => rule.path_contains = parse_list(value, lineno)?,
                        "fn_contains" => rule.fn_contains = parse_list(value, lineno)?,
                        "entry_points" => rule.entry_points = parse_list(value, lineno)?,
                        _ => return Err(format!("line {lineno}: unknown rule key {key}")),
                    }
                }
                _ => return Err(format!("line {lineno}: assignment outside a section")),
            }
        }
        Ok(cfg)
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a quoted string, got {value}"))?;
    Ok(inner.to_string())
}

fn parse_list(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected a [\"...\"] list, got {value}"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_lists() {
        let cfg = Config::parse(
            "# comment\n[run]\nexclude = [\"crates/compat\", \"target\"]\n\n\
             [rules.DET001]\nseverity = \"warn\"\ncrates = [\"abft-memsim\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.excludes, vec!["crates/compat", "target"]);
        assert_eq!(cfg.rule("DET001").severity, Severity::Warn);
        assert_eq!(cfg.rule("DET001").crates.as_deref(), Some(&["abft-memsim".to_string()][..]));
        assert_eq!(cfg.rule("DET002").severity, Severity::Error);
    }

    #[test]
    fn rejects_unknown_rules_and_keys() {
        assert!(Config::parse("[rules.NOPE]\n").is_err());
        assert!(Config::parse("[run]\nfrobnicate = \"x\"\n").is_err());
        assert!(Config::parse("[rules.DET001]\nseverity = \"fatal\"\n").is_err());
    }
}
