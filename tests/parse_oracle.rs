//! The `.tg` parser against its oracle, the parser it replaced
//! (`tests/support/parse_oracle.rs`). On mutants of three real texts (the
//! §4 DCT, Figure 4 and a 60-task `gen::scaled` graph) and on arbitrary
//! bytes, `parse` must return exactly the oracle's `Result`: the same
//! graph, adjacency included, or the same `ParseError`, line and kind.
//! Neither may panic.

#[path = "support/parse_oracle.rs"]
mod parse_oracle;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcs::dfg::gen::{fig4_example, scaled, ScaledConfig};
use sparcs::dfg::parse::{parse, to_text, ParseErrorKind};
use sparcs::dfg::GraphError;
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The texts every mutant starts from.
fn bases() -> &'static [String; 3] {
    static BASES: OnceLock<[String; 3]> = OnceLock::new();
    BASES.get_or_init(|| {
        let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("the DCT builds");
        [
            to_text(&dct.graph),
            to_text(&fig4_example()),
            to_text(&scaled(&ScaledConfig::preset(60), 7)),
        ]
    })
}

/// What the character edits draw from: the format's punctuation, line
/// breaks, two characters that Unicode counts as whitespace and ASCII
/// splitting does not (`\u{0b}`, `\u{a0}`), and some letters and digits.
const ALPHABET: [char; 19] = [
    ' ', '=', '_', '+', '-', '#', '>', ',', '\n', '\r', '\t', '\u{0b}', '\u{a0}', 'a', 't', 'e',
    '0', '1', '9',
];

/// Values the token edits put in place of a field's value: signs, digit
/// separators, 2⁶⁴ and its predecessor, and an empty value.
const VALUES: [&str; 12] = [
    "+5",
    "1_000",
    "_",
    "18446744073709551616",
    "18446744073709551615",
    "+",
    "-1",
    "",
    "0x1",
    "++5",
    "_+_5_",
    "007",
];

/// Token separators, Unicode whitespace included.
const SEPARATORS: [&str; 5] = [" ", "\t", "  ", " \u{0b}", "\u{a0}"];

/// Substitutes, inserts or deletes one to four characters.
fn edit_chars(text: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.gen_range(1..=4) {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        let at = rng.gen_range(0..=chars.len());
        match rng.gen_range(0..3) {
            0 if at < chars.len() => chars[at] = c,
            1 => chars.insert(at, c),
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// Cuts the text at a random character boundary.
fn truncate(text: &str, rng: &mut StdRng) -> String {
    let mut at = rng.gen_range(0..=text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    text[..at].to_string()
}

/// Flips one to four bits, undoing each flip that would break UTF-8.
fn flip_bits(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let (at, bit) = (rng.gen_range(0..bytes.len()), rng.gen_range(0..8u32));
        bytes[at] ^= 1 << bit;
        if std::str::from_utf8(&bytes).is_err() {
            bytes[at] ^= 1 << bit;
        }
    }
    String::from_utf8(bytes).expect("every kept flip leaves valid UTF-8")
}

/// Edits one to three lines token by token: repeated, missing and unknown
/// keys, odd values, tokens without `=`, repeated lines and list items,
/// and names moved within or between lines.
fn edit_tokens(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let ports: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains("tasks="))
        .collect();
    for _ in 0..rng.gen_range(1..=3) {
        // One edit in four goes to a port line, where the lists are.
        let i = match rng.gen_range(0..4) {
            0 if !ports.is_empty() => ports[rng.gen_range(0..ports.len())],
            _ => rng.gen_range(0..lines.len()),
        };
        let mut tokens: Vec<String> = lines[i].split_whitespace().map(str::to_string).collect();
        if tokens.is_empty() {
            continue;
        }
        let j = rng.gen_range(0..tokens.len());
        let value = VALUES[rng.gen_range(0..VALUES.len())];
        let key = tokens[j].split_once('=').map(|(k, _)| k.to_string());
        match rng.gen_range(0..9) {
            0 => tokens.push(format!("{}={value}", key.unwrap_or_default())),
            1 => {
                tokens.remove(j);
            }
            2 => tokens.push(["zz=1", "kind=X", "words=2"][rng.gen_range(0..3usize)].to_string()),
            3 => {
                tokens[j] = match key {
                    Some(k) => format!("{k}={value}"),
                    None => value.to_string(),
                }
            }
            4 => tokens.insert(j, "bogus".to_string()),
            5 => lines.insert(i, lines[i].clone()),
            6 => {
                let k = rng.gen_range(0..tokens.len());
                tokens[j] = tokens[k].clone();
            }
            7 => {
                let other: Vec<String> = lines[rng.gen_range(0..lines.len())]
                    .split_whitespace()
                    .map(str::to_string)
                    .collect();
                if let Some(t) = other.get(rng.gen_range(0..other.len().max(1))) {
                    tokens[j] = t.clone();
                }
            }
            _ => {
                // Repeat the first item of the line's list value
                // (`tasks=a,b` becomes `tasks=a,b,a`).
                if let Some(list) = tokens.iter_mut().find(|t| t.starts_with("tasks=")) {
                    let first = list["tasks=".len()..].split(',').next().unwrap_or("");
                    *list = format!("{list},{first}");
                }
            }
        }
        lines[i] = tokens.join(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
    }
    lines.join(["\n", "\r\n"][rng.gen_range(0..2usize)])
}

/// The mutant drawn from `seed`: one base text, one of four mutations.
fn mutant(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = &bases()[rng.gen_range(0..3usize)];
    match rng.gen_range(0..4) {
        0 => edit_chars(base, &mut rng),
        1 => truncate(base, &mut rng),
        2 => flip_bits(base, &mut rng),
        _ => edit_tokens(base, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5_000, ..ProptestConfig::default() })]

    #[test]
    fn mutants_parse_exactly_like_the_oracle(seed in any::<u64>()) {
        let text = mutant(seed);
        prop_assert_eq!(parse(&text), parse_oracle::parse(&text));
    }

    #[test]
    fn arbitrary_bytes_parse_exactly_like_the_oracle(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(parse(&text), parse_oracle::parse(&text));
    }
}

/// The mutants must reach a parsed graph and every error the format can
/// report, or the property above checks less than it claims.
#[test]
fn the_mutants_reach_every_outcome() {
    let mut seen = BTreeSet::new();
    for seed in 0..2_000 {
        seen.insert(match parse(&mutant(seed)) {
            Ok(_) => "ok",
            Err(e) => match e.kind {
                ParseErrorKind::UnknownDirective(_) => "unknown directive",
                ParseErrorKind::BadField(_) => "bad field",
                ParseErrorKind::MissingField(_) => "missing field",
                ParseErrorKind::UnknownTask(_) => "unknown task",
                ParseErrorKind::DuplicateTask(_) => "duplicate task",
                ParseErrorKind::MissingArrow => "missing arrow",
                ParseErrorKind::Graph(GraphError::SelfLoop(_)) => "self loop",
                ParseErrorKind::Graph(GraphError::DuplicateEdge(..)) => "duplicate edge",
                ParseErrorKind::Graph(GraphError::EmptyEnvPort(_)) => "empty port",
                ParseErrorKind::Graph(GraphError::DuplicateEnvTask(..)) => "duplicate port task",
                ParseErrorKind::Graph(e) => panic!("the parser cannot report {e}"),
            },
        });
    }
    assert_eq!(
        seen,
        BTreeSet::from([
            "ok",
            "unknown directive",
            "bad field",
            "missing field",
            "unknown task",
            "duplicate task",
            "missing arrow",
            "self loop",
            "duplicate edge",
            "empty port",
            "duplicate port task",
        ])
    );
}
