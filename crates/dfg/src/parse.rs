//! A plain-text behavior-specification format.
//!
//! The paper's flow starts from "behavior level design descriptions"; this
//! module gives SPARCS-RS a concrete on-disk form for them, so the CLI and
//! downstream users can feed task graphs in without writing Rust. The format
//! is line-based:
//!
//! ```text
//! # comment
//! graph jpeg_dct
//! task t1_00 clbs=70 delay=3400 out=1 kind=T1
//! task t2_00 clbs=180 delay=2520 out=1 kind=T2
//! edge t1_00 -> t2_00 words=1
//! input x_col0 words=4 tasks=t1_00
//! output z_row0 words=1 tasks=t2_00
//! ```
//!
//! [`parse`] builds a [`TaskGraph`]; [`to_text`] writes one back out
//! (round-trip tested).
//!
//! # Cost
//!
//! [`parse`] is linear in the text. It walks each line's tokens once and
//! matches the directive's keys in place on `&str` slices of the input;
//! a number allocates only when it carries a `_` separator. Task names
//! are indexed in a hash map that borrows the text. Edges are appended
//! unchecked and searched for repeats in one pass over the adjacency when
//! the walk ends, so a task with many consumers costs nothing extra (the
//! builder's [`TaskGraph::add_edge`] scans the source's successor list
//! instead). The name map hashes with std's randomly keyed `RandomState`:
//! `sparcsd` parses text its clients send, and a fixed key would let a
//! client pick names that collide in one bucket.

use crate::graph::{Edge, GraphError, TaskGraph, TaskId};
use crate::resources::Resources;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// Parse failure categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Unknown directive at line start.
    UnknownDirective(String),
    /// A `key=value` field was malformed or had a bad number.
    BadField(String),
    /// A required field was missing.
    MissingField(&'static str),
    /// Reference to an undeclared task name.
    UnknownTask(String),
    /// The same task name declared twice.
    DuplicateTask(String),
    /// Structural error from the graph builder.
    Graph(GraphError),
    /// `edge` line missing the `->` arrow.
    MissingArrow,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            ParseErrorKind::BadField(s) => write!(f, "malformed field `{s}`"),
            ParseErrorKind::MissingField(k) => write!(f, "missing field `{k}`"),
            ParseErrorKind::UnknownTask(t) => write!(f, "unknown task `{t}`"),
            ParseErrorKind::DuplicateTask(t) => write!(f, "task `{t}` declared twice"),
            ParseErrorKind::Graph(e) => write!(f, "{e}"),
            ParseErrorKind::MissingArrow => write!(f, "edge must be `edge A -> B words=N`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Walks the `key=value` tokens of one line once and keeps, for each of
/// `keys`, the value of its last occurrence. Unknown keys are ignored; a
/// token without `=` is a [`ParseErrorKind::BadField`] before any value
/// is judged.
fn fields<'a, const K: usize>(
    tokens: impl Iterator<Item = &'a str>,
    keys: [&str; K],
    line: usize,
) -> Result<[Option<&'a str>; K], ParseError> {
    let mut values = [None; K];
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(ParseError {
                line,
                kind: ParseErrorKind::BadField(token.to_string()),
            });
        };
        if let Some(i) = keys.iter().position(|&k| k == key) {
            values[i] = Some(value);
        }
    }
    Ok(values)
}

/// A required unsigned field; `_` separators are dropped before parsing.
fn num(raw: Option<&str>, key: &'static str, line: usize) -> Result<u64, ParseError> {
    let raw = raw.ok_or(ParseError {
        line,
        kind: ParseErrorKind::MissingField(key),
    })?;
    let value = if raw.contains('_') {
        raw.replace('_', "").parse()
    } else {
        raw.parse()
    };
    value.map_err(|_| ParseError {
        line,
        kind: ParseErrorKind::BadField(format!("{key}={raw}")),
    })
}

/// The tokens of one line: the text before any `#`, split at Unicode
/// whitespace.
fn tokens(raw: &str) -> std::str::SplitWhitespace<'_> {
    raw.split('#').next().unwrap_or("").split_whitespace()
}

/// Parses the text format into a [`TaskGraph`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse(text: &str) -> Result<TaskGraph, ParseError> {
    let mut g = TaskGraph::new("unnamed");
    let walked = walk(text, &mut g);
    // The walk appends edges without looking for repeats. Every edge it
    // appended comes from a line before the one it stopped at, so the
    // first repeat, if any, is the error to report.
    if let Some(k) = g.first_repeated_edge() {
        let Edge { src, dst, .. } = g.edges()[k];
        let (i, _) = text
            .lines()
            .enumerate()
            .filter(|(_, raw)| tokens(raw).next() == Some("edge"))
            .nth(k)
            .expect("edge k was appended from the k-th `edge` line");
        return Err(ParseError {
            line: i + 1,
            kind: ParseErrorKind::Graph(GraphError::DuplicateEdge(src, dst)),
        });
    }
    walked.map(|()| g)
}

/// Builds `g` line by line up to the first error. Edges are appended
/// without [`TaskGraph::add_edge`]'s duplicate scan; [`parse`] checks
/// them all at once afterwards.
fn walk<'a>(text: &'a str, g: &mut TaskGraph) -> Result<(), ParseError> {
    let mut names: HashMap<&'a str, TaskId> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let error = |kind| ParseError { line, kind };
        let lookup = |name: &str| {
            names
                .get(name)
                .copied()
                .ok_or_else(|| error(ParseErrorKind::UnknownTask(name.to_string())))
        };
        let mut tokens = tokens(raw);
        let Some(directive) = tokens.next() else {
            continue;
        };
        match directive {
            "graph" => {
                // Only a `graph` line before any task names the graph.
                if g.task_count() == 0 && g.env_ports().is_empty() {
                    *g = TaskGraph::new(tokens.next().unwrap_or("unnamed"));
                }
            }
            "task" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| error(ParseErrorKind::MissingField("name")))?;
                if names.contains_key(name) {
                    return Err(error(ParseErrorKind::DuplicateTask(name.to_string())));
                }
                let [clbs, delay, out, kind] =
                    fields(tokens, ["clbs", "delay", "out", "kind"], line)?;
                let clbs = num(clbs, "clbs", line)?;
                let delay = num(delay, "delay", line)?;
                let out = num(out, "out", line)?;
                let id = g.add_task_kind(
                    name,
                    kind.unwrap_or_default(),
                    Resources::clbs(clbs),
                    delay,
                    out,
                );
                names.insert(name, id);
            }
            "edge" => {
                // edge A -> B words=N
                let (Some(src), Some("->"), Some(dst)) =
                    (tokens.next(), tokens.next(), tokens.next())
                else {
                    return Err(error(ParseErrorKind::MissingArrow));
                };
                let src = lookup(src)?;
                let dst = lookup(dst)?;
                let [words] = fields(tokens, ["words"], line)?;
                let words = match words {
                    Some(_) => num(words, "words", line)?,
                    None => g.task(src).output_words,
                };
                if src == dst {
                    return Err(error(ParseErrorKind::Graph(GraphError::SelfLoop(src))));
                }
                g.append_edge(src, dst, words);
            }
            "input" | "output" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| error(ParseErrorKind::MissingField("name")))?;
                let [words, tasks] = fields(tokens, ["words", "tasks"], line)?;
                let words = num(words, "words", line)?;
                let tasks = tasks.ok_or_else(|| error(ParseErrorKind::MissingField("tasks")))?;
                let ids = tasks
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(lookup)
                    .collect::<Result<Vec<_>, _>>()?;
                let result = if directive == "input" {
                    g.add_env_input(name, words, ids)
                } else {
                    g.add_env_output(name, words, ids)
                };
                result.map_err(|e| error(ParseErrorKind::Graph(e)))?;
            }
            other => {
                return Err(error(ParseErrorKind::UnknownDirective(other.to_string())));
            }
        }
    }
    Ok(())
}

/// Writes a [`TaskGraph`] in the text format (inverse of [`parse`] up to
/// comments and formatting).
pub fn to_text(g: &TaskGraph) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "graph {}", g.name());
    for (id, t) in g.tasks() {
        let _ = write!(
            s,
            "task {} clbs={} delay={} out={}",
            t.name, t.resources.clbs, t.delay_ns, t.output_words
        );
        if t.kind.is_empty() {
            let _ = writeln!(s);
        } else {
            let _ = writeln!(s, " kind={}", t.kind);
        }
        let _ = id;
    }
    for e in g.edges() {
        let _ = writeln!(
            s,
            "edge {} -> {} words={}",
            g.task(e.src).name,
            g.task(e.dst).name,
            e.words
        );
    }
    for port in g.env_ports() {
        let dir = match port.direction {
            crate::graph::EnvDirection::Input => "input",
            crate::graph::EnvDirection::Output => "output",
        };
        let tasks: Vec<&str> = port
            .tasks
            .iter()
            .map(|&t| g.task(t).name.as_str())
            .collect();
        let _ = writeln!(
            s,
            "{dir} {} words={} tasks={}",
            port.name,
            port.words,
            tasks.join(",")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# a two-stage pipeline
graph sample
task a clbs=700 delay=2_000 out=8 kind=FIR
task b clbs=500 delay=800 out=4
edge a -> b words=8
input samples words=8 tasks=a
output packed words=4 tasks=b
";

    #[test]
    fn parses_sample() {
        let g = parse(SAMPLE).unwrap();
        assert_eq!(g.name(), "sample");
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.env_inputs().count(), 1);
        assert_eq!(g.env_outputs().count(), 1);
        let a = g.task(crate::graph::TaskId(0));
        assert_eq!(a.resources.clbs, 700);
        assert_eq!(a.delay_ns, 2_000);
        assert_eq!(a.kind, "FIR");
    }

    #[test]
    fn round_trips_through_text() {
        let g = parse(SAMPLE).unwrap();
        let text = to_text(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn round_trips_generated_graphs() {
        let g = crate::gen::fig4_example();
        let g2 = parse(&to_text(&g)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_words_default_to_producer_output() {
        let g =
            parse("task a clbs=1 delay=1 out=6\ntask b clbs=1 delay=1 out=1\nedge a -> b").unwrap();
        assert_eq!(g.edges()[0].words, 6);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("task a clbs=1 delay=1 out=1\nbogus x").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::UnknownDirective(_)));

        let err = parse("task a clbs=ten delay=1 out=1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ParseErrorKind::BadField(_)));

        let err = parse("edge a -> b words=1").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownTask(_)));

        let err = parse("task a clbs=1 delay=1 out=1\ntask a clbs=1 delay=1 out=1").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateTask(_)));

        let err = parse("task a clbs=1 out=1").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingField("delay"));

        let err = parse("task a clbs=1 delay=1 out=1\nedge a b words=1").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingArrow);
    }

    #[test]
    fn structural_errors_surface() {
        let err = parse("task a clbs=1 delay=1 out=1\nedge a -> a words=1").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Graph(GraphError::SelfLoop(_))
        ));

        // The first repeated edge in the text is reported, on its second
        // line, before any error on a later line; here it leaves `b`,
        // though `a`'s repeat is found first in task order.
        let err = parse(
            "task a clbs=1 delay=1 out=1\ntask b clbs=1 delay=1 out=1\n\
             task c clbs=1 delay=1 out=1\nedge b -> c\nedge a -> c\nedge b -> c words=2\n\
             edge a -> c\nbogus",
        )
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert_eq!(
            err.kind,
            ParseErrorKind::Graph(GraphError::DuplicateEdge(TaskId(1), TaskId(2)))
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse("# nothing\n\n   # indented comment\n").unwrap();
        assert_eq!(g.task_count(), 0);
    }
}
