//! The `.tg` parser as it stood before the single-walk rewrite, kept
//! verbatim as the oracle the current `sparcs_dfg::parse::parse` must
//! match: the same graph for every text it accepts, and the same
//! `ParseError` (line and kind) for every text it rejects. It builds a
//! `BTreeMap<String, String>` per line and checks each edge for a
//! duplicate by scanning its source's successors, so it is quadratic in
//! a task's out-degree; the release scale smoke races the two on a star.
//!
//! Shared by `tests/parse_oracle.rs` and `tests/checkers_scale.rs`.

use sparcs::dfg::parse::{ParseError, ParseErrorKind};
use sparcs::dfg::{Resources, TaskGraph, TaskId};
use std::collections::BTreeMap;

fn fields(parts: &[&str], line: usize) -> Result<BTreeMap<String, String>, ParseError> {
    let mut map = BTreeMap::new();
    for p in parts {
        let Some((k, v)) = p.split_once('=') else {
            return Err(ParseError {
                line,
                kind: ParseErrorKind::BadField((*p).to_string()),
            });
        };
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn num(map: &BTreeMap<String, String>, key: &'static str, line: usize) -> Result<u64, ParseError> {
    let raw = map.get(key).ok_or(ParseError {
        line,
        kind: ParseErrorKind::MissingField(key),
    })?;
    raw.replace('_', "").parse().map_err(|_| ParseError {
        line,
        kind: ParseErrorKind::BadField(format!("{key}={raw}")),
    })
}

/// Parses the text format into a [`TaskGraph`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse(text: &str) -> Result<TaskGraph, ParseError> {
    let mut g = TaskGraph::new("unnamed");
    let mut names: BTreeMap<String, TaskId> = BTreeMap::new();
    let lookup = |names: &BTreeMap<String, TaskId>, name: &str, line: usize| {
        names.get(name).copied().ok_or(ParseError {
            line,
            kind: ParseErrorKind::UnknownTask(name.to_string()),
        })
    };
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let directive = parts.next().expect("non-empty line");
        let rest: Vec<&str> = parts.collect();
        match directive {
            "graph" => {
                let name = rest.first().copied().unwrap_or("unnamed");
                g = rename(g, name);
            }
            "task" => {
                let Some((&name, kv)) = rest.split_first() else {
                    return Err(ParseError {
                        line,
                        kind: ParseErrorKind::MissingField("name"),
                    });
                };
                if names.contains_key(name) {
                    return Err(ParseError {
                        line,
                        kind: ParseErrorKind::DuplicateTask(name.to_string()),
                    });
                }
                let map = fields(kv, line)?;
                let clbs = num(&map, "clbs", line)?;
                let delay = num(&map, "delay", line)?;
                let out = num(&map, "out", line)?;
                let kind = map.get("kind").cloned().unwrap_or_default();
                let id = g.add_task_kind(name, kind, Resources::clbs(clbs), delay, out);
                names.insert(name.to_string(), id);
            }
            "edge" => {
                // edge A -> B words=N
                if rest.len() < 3 || rest[1] != "->" {
                    return Err(ParseError {
                        line,
                        kind: ParseErrorKind::MissingArrow,
                    });
                }
                let src = lookup(&names, rest[0], line)?;
                let dst = lookup(&names, rest[2], line)?;
                let map = fields(&rest[3..], line)?;
                let words = if map.contains_key("words") {
                    num(&map, "words", line)?
                } else {
                    g.task(src).output_words
                };
                g.add_edge(src, dst, words).map_err(|e| ParseError {
                    line,
                    kind: ParseErrorKind::Graph(e),
                })?;
            }
            "input" | "output" => {
                let Some((&name, kv)) = rest.split_first() else {
                    return Err(ParseError {
                        line,
                        kind: ParseErrorKind::MissingField("name"),
                    });
                };
                let map = fields(kv, line)?;
                let words = num(&map, "words", line)?;
                let tasks_raw = map.get("tasks").ok_or(ParseError {
                    line,
                    kind: ParseErrorKind::MissingField("tasks"),
                })?;
                let mut ids = Vec::new();
                for t in tasks_raw.split(',').filter(|s| !s.is_empty()) {
                    ids.push(lookup(&names, t, line)?);
                }
                let result = if directive == "input" {
                    g.add_env_input(name, words, ids)
                } else {
                    g.add_env_output(name, words, ids)
                };
                result.map_err(|e| ParseError {
                    line,
                    kind: ParseErrorKind::Graph(e),
                })?;
            }
            other => {
                return Err(ParseError {
                    line,
                    kind: ParseErrorKind::UnknownDirective(other.to_string()),
                })
            }
        }
    }
    Ok(g)
}

/// Renames a graph (the builder has no rename; rebuild the shell cheaply).
fn rename(g: TaskGraph, name: &str) -> TaskGraph {
    // Only legal before any task is added (the `graph` directive comes
    // first); otherwise keep contents and only change the label by
    // serializing through the builder.
    if g.task_count() == 0 && g.env_ports().is_empty() {
        TaskGraph::new(name)
    } else {
        g
    }
}
