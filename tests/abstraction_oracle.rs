//! Differential wall for statement abstraction.
//!
//! `abstract_statement` writes the `$k` template in one pass over borrowed
//! tokens. This file keeps the original two-step path as the reference:
//! parse into a `Statement`, clone it with every value replaced by a quoted
//! `$k` string, print it through `Display` and strip the quotes; statements
//! that do not parse go through the original byte-wise literal fallback.
//! Every input below must abstract byte-identically under both paths, and
//! `abstract_template` must accept exactly what `parse` accepts.
//!
//! Inputs: every statement of the Scenario I and II datasets and raw logs,
//! the tenant archetype logs, seeded mutations of those statements
//! (truncations, byte insert/delete/replace, 20-digit literals), and
//! generated statements of the subset. Mutations draw only ASCII bytes: the
//! original fallback pushed each byte as a `char`, so it is a reference for
//! ASCII text only (the non-ASCII behaviour is unit-tested in
//! `ucad-preprocess`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::{Entry, HashMap};
use ucad_dbsim::{
    abstract_template, parse, tenant_serving_events, training_records, Condition, Projection,
    Statement, TenantArchetype, TenantSpec, Value,
};
use ucad_preprocess::{
    abstract_statement, clean_sessions, AccessPolicy, CleanOutcome, PreprocessConfig, Preprocessor,
    Vocabulary,
};
use ucad_trace::{generate_raw_log, ScenarioDataset, ScenarioSpec, Session};

// ------------------------------------------------------------- reference path

/// The original abstraction: placeholder AST, `Display`, strip quotes.
fn reference_parsed(stmt: &Statement) -> String {
    let mut counter = 0usize;
    let mut ph = || {
        counter += 1;
        Value::Str(format!("${counter}"))
    };
    let conds = |conds: &[Condition], ph: &mut dyn FnMut() -> Value| -> Vec<Condition> {
        conds
            .iter()
            .map(|c| match c {
                Condition::Eq(col, _) => Condition::Eq(col.clone(), ph()),
                Condition::In(col, vs) => {
                    Condition::In(col.clone(), vs.iter().map(|_| ph()).collect())
                }
            })
            .collect()
    };
    let abstracted = match stmt {
        Statement::Insert {
            table,
            columns,
            rows,
        } => Statement::Insert {
            table: table.clone(),
            columns: columns.clone(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|_| ph()).collect())
                .collect(),
        },
        Statement::Select {
            table,
            projection,
            conditions,
        } => Statement::Select {
            table: table.clone(),
            projection: projection.clone(),
            conditions: conds(conditions, &mut ph),
        },
        Statement::Update {
            table,
            assignments,
            conditions,
        } => Statement::Update {
            table: table.clone(),
            assignments: assignments.iter().map(|(c, _)| (c.clone(), ph())).collect(),
            conditions: conds(conditions, &mut ph),
        },
        Statement::Delete { table, conditions } => Statement::Delete {
            table: table.clone(),
            conditions: conds(conditions, &mut ph),
        },
    };
    abstracted.to_string().replace('\'', "")
}

/// The original byte-wise literal fallback (exact on ASCII text).
fn reference_literals(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    let mut counter = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\'' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] as char != '\'' {
                j += 1;
            }
            counter += 1;
            out.push_str(&format!("${counter}"));
            i = (j + 1).min(bytes.len());
        } else if c.is_ascii_digit()
            && (i == 0
                || !(bytes[i - 1] as char).is_ascii_alphanumeric() && bytes[i - 1] as char != '_')
        {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                j += 1;
            }
            counter += 1;
            out.push_str(&format!("${counter}"));
            i = j;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn reference_abstract(sql: &str) -> String {
    match parse(sql) {
        Ok(stmt) => reference_parsed(&stmt),
        Err(_) => reference_literals(sql),
    }
}

/// Asserts every oracle property on one input; returns whether it parsed.
fn check(sql: &str) -> bool {
    let parsed = parse(sql).is_ok();
    assert_eq!(
        abstract_template(sql).is_some(),
        parsed,
        "abstract_template and parse disagree on acceptance of {sql:?}"
    );
    let once = abstract_statement(sql);
    assert_eq!(once, reference_abstract(sql), "abstraction of {sql:?}");
    let twice = abstract_statement(&once);
    assert_eq!(
        twice,
        reference_abstract(&once),
        "re-abstraction of {sql:?}"
    );
    if parsed {
        assert_eq!(twice, once, "template of {sql:?} is not a fixed point");
    }
    parsed
}

// ------------------------------------------------------------------ corpora

fn scenario_statements(spec: &ScenarioSpec, train: usize, seed: u64) -> Vec<String> {
    let ds = ScenarioDataset::generate(spec, train, seed);
    let raw = generate_raw_log(spec, train, 0.3, seed);
    let sessions = ds
        .train
        .iter()
        .chain(&ds.v1)
        .chain(&ds.v2)
        .chain(&ds.v3)
        .chain(ds.a1.iter().chain(&ds.a2).chain(&ds.a3).map(|l| &l.session))
        .chain(&raw.sessions);
    sessions
        .flat_map(|s| s.ops.iter().map(|op| op.sql.clone()))
        .collect()
}

fn tenant_statements() -> Vec<String> {
    let mut out = Vec::new();
    for (i, &archetype) in TenantArchetype::all().iter().enumerate() {
        out.extend(
            training_records(archetype, 60, 70 + i as u64)
                .into_iter()
                .map(|r| r.sql),
        );
        let spec = TenantSpec {
            tenant: i as u64 + 1,
            archetype,
            seed: 80 + i as u64,
        };
        out.extend(
            tenant_serving_events(&spec, 60, 0.2)
                .into_iter()
                .filter_map(|e| match e {
                    ucad_dbsim::FleetEvent::Record { record, .. } => Some(record.sql),
                    ucad_dbsim::FleetEvent::Close { .. } => None,
                }),
        );
    }
    out
}

fn corpus() -> Vec<String> {
    let mut all = scenario_statements(&ScenarioSpec::commenting(), 120, 2201);
    all.extend(scenario_statements(
        &ScenarioSpec::location_service(),
        120,
        2202,
    ));
    all.extend(tenant_statements());
    all
}

/// ASCII bytes a mutation may write: the lexer's punctuation, quotes,
/// digits, signs, `$`, letters, whitespace and a few bytes it rejects.
const MUTATION_BYTES: &[u8] = b"'(),=*-;$_ \t019aZxW#.\"<";

/// One seeded mutation of `sql`.
fn mutate(sql: &str, rng: &mut StdRng) -> String {
    let mut bytes = sql.as_bytes().to_vec();
    let pick = |rng: &mut StdRng| MUTATION_BYTES[rng.gen_range(0..MUTATION_BYTES.len())];
    match rng.gen_range(0..5u32) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, pick(rng));
        }
        2 if !bytes.is_empty() => {
            bytes.remove(rng.gen_range(0..bytes.len()));
        }
        3 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = pick(rng);
        }
        _ => {
            // Widen one digit into a 20-digit literal, past i64::MAX.
            if let Some(at) = bytes.iter().position(|b| b.is_ascii_digit()) {
                bytes.splice(at..at + 1, *b"98765432109876543210");
            }
        }
    }
    String::from_utf8(bytes).expect("corpus and mutation bytes are ASCII")
}

// -------------------------------------------------------------------- walls

#[test]
fn abstraction_matches_the_ast_round_trip_on_every_corpus_statement() {
    let corpus = corpus();
    assert!(corpus.iter().all(|s| s.is_ascii()), "generators are ASCII");
    let parsed = corpus.iter().filter(|s| check(s)).count();
    assert!(
        parsed * 10 >= corpus.len() * 9,
        "the corpus should be mostly in the parsed subset: {parsed}/{}",
        corpus.len()
    );
}

#[test]
fn abstraction_matches_the_ast_round_trip_on_seeded_mutations() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0xAB57);
    let (mut parsed, mut total) = (0usize, 0usize);
    for _ in 0..50_000 {
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let mut sql = mutate(base, &mut rng);
        if rng.gen_bool(0.3) {
            sql = mutate(&sql, &mut rng);
        }
        parsed += check(&sql) as usize;
        total += 1;
    }
    // Both halves of the grammar must be exercised: mutants that still
    // parse and mutants that fall back.
    assert!(
        parsed > total / 10 && parsed < total * 9 / 10,
        "{parsed}/{total} mutants parsed"
    );
}

#[test]
fn fit_vocabulary_and_purified_keys_equal_the_two_pass_build() {
    let specs = [
        (ScenarioSpec::commenting(), 2301),
        (ScenarioSpec::location_service(), 2302),
    ];
    for (spec, seed) in specs {
        let raw = generate_raw_log(&spec, 80, 0.25, seed).sessions;
        let config = PreprocessConfig::default();
        let (pre, purified, _) = Preprocessor::fit(&raw, config, 7);

        // Two passes over the policy-passing sessions, abstracting through
        // the reference path: intern every template, then tokenize.
        let policy = AccessPolicy::learn_with_support(&raw, config.policy_min_support);
        let (passing, _) = policy.filter(&raw);
        let mut templates: Vec<String> = Vec::new();
        let mut key_of: HashMap<String, u32> = HashMap::new();
        for op in passing.iter().flat_map(|s| &s.ops) {
            if let Entry::Vacant(slot) = key_of.entry(reference_abstract(&op.sql)) {
                templates.push(slot.key().clone());
                slot.insert(templates.len() as u32);
            }
        }
        let tokenized: Vec<Vec<u32>> = passing
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|op| key_of[&reference_abstract(&op.sql)])
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        let (outcome, _) = clean_sessions(&tokenized, &config.cleaner, &mut rng);
        let expected: Vec<Vec<u32>> = tokenized
            .into_iter()
            .zip(outcome)
            .filter(|(_, o)| *o == CleanOutcome::Kept)
            .map(|(s, _)| s)
            .collect();

        let fitted: Vec<&str> = (1..=pre.vocab.len() as u32)
            .map(|k| pre.vocab.template(k).expect("dense keys"))
            .collect();
        assert_eq!(fitted, templates, "{} vocabulary", spec.name);
        assert_eq!(purified, expected, "{} purified keys", spec.name);

        // The one-pass builder agrees with the two-pass public API too.
        let owned: Vec<Session> = passing.iter().map(|&s| s.clone()).collect();
        let vocab = Vocabulary::from_sessions(&owned);
        let (built, keys) = Vocabulary::build_tokenized(&owned);
        assert_eq!(built.len(), vocab.len());
        for (s, k) in owned.iter().zip(&keys) {
            assert_eq!(&vocab.tokenize_session(s), k);
        }
    }
}

// ---------------------------------------------------- generated statements

/// Identifiers within the engine's lexer.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        "[a-zA-Z0-9 _]{0,10}".prop_map(Value::Str),
    ]
}

fn condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        (ident(), value()).prop_map(|(c, v)| Condition::Eq(c, v)),
        (ident(), prop::collection::vec(value(), 1..5)).prop_map(|(c, vs)| Condition::In(c, vs)),
    ]
}

fn statement() -> impl Strategy<Value = Statement> {
    let select = (
        ident(),
        prop_oneof![
            Just(Projection::All),
            prop::collection::vec(ident(), 1..4).prop_map(Projection::Columns)
        ],
        prop::collection::vec(condition(), 0..4),
    )
        .prop_map(|(table, projection, conditions)| Statement::Select {
            table,
            projection,
            conditions,
        });
    let insert = (ident(), prop::collection::vec(ident(), 1..5), 1usize..4).prop_flat_map(
        |(table, columns, rows)| {
            let arity = columns.len();
            prop::collection::vec(prop::collection::vec(value(), arity..=arity), rows..=rows)
                .prop_map(move |rows| Statement::Insert {
                    table: table.clone(),
                    columns: columns.clone(),
                    rows,
                })
        },
    );
    let update = (
        ident(),
        prop::collection::vec((ident(), value()), 1..4),
        prop::collection::vec(condition(), 0..3),
    )
        .prop_map(|(table, assignments, conditions)| Statement::Update {
            table,
            assignments,
            conditions,
        });
    let delete = (ident(), prop::collection::vec(condition(), 0..3))
        .prop_map(|(table, conditions)| Statement::Delete { table, conditions });
    prop_oneof![select, insert, update, delete]
}

proptest! {
    /// Generated statements of the subset, and seeded mutants of them.
    #[test]
    fn generated_statements_match_the_ast_round_trip(
        stmt in statement(),
        seed in any::<u64>(),
    ) {
        let sql = stmt.to_string();
        prop_assert!(check(&sql), "generated statement must parse: {sql}");
        prop_assert_eq!(abstract_template(&sql), Some(reference_parsed(&stmt)));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            check(&mutate(&sql, &mut rng));
        }
    }
}
