//! Property-based tests on cross-crate invariants: SQL parse/print
//! round-trips, abstraction stability, tokenization consistency, n-gram
//! metric properties, detector monotonicity and metric identities.

use proptest::prelude::*;
use ucad::Confusion;
use ucad_dbsim::{parse, Condition, Projection, Statement, Value};
use ucad_preprocess::{abstract_statement, NgramProfile, Vocabulary};

/// Strategy for identifiers (columns/tables) within the engine's lexer.
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
    /// Display -> parse is the identity on the engine's SQL subset.
    #[test]
    fn sql_display_parse_roundtrip(stmt in statement()) {
        let printed = stmt.to_string();
        let reparsed = parse(&printed);
        prop_assert!(reparsed.is_ok(), "failed to reparse: {printed}");
        prop_assert_eq!(reparsed.unwrap(), stmt);
    }

    /// Abstraction is idempotent and erases every literal value.
    #[test]
    fn abstraction_idempotent_and_value_free(stmt in statement()) {
        let sql = stmt.to_string();
        let once = abstract_statement(&sql);
        let twice = abstract_statement(&once);
        prop_assert_eq!(&once, &twice);
        // Re-abstracting a statement with fresh values gives the same key.
        let sql2 = match &stmt {
            Statement::Update { table, assignments, conditions } => {
                Statement::Update {
                    table: table.clone(),
                    assignments: assignments
                        .iter()
                        .map(|(c, _)| (c.clone(), Value::Int(424_242)))
                        .collect(),
                    conditions: conditions.clone(),
                }
                .to_string()
            }
            _ => sql.clone(),
        };
        prop_assert_eq!(abstract_statement(&sql2), once);
    }

    /// Tokenization maps known templates to stable non-zero keys and
    /// unknown templates to k0.
    #[test]
    fn vocabulary_keys_are_stable(templates in prop::collection::hash_set("[A-Z]{1,6}", 1..20)) {
        let templates: Vec<String> = templates.into_iter().collect();
        let vocab = Vocabulary::from_templates(templates.clone());
        for t in &templates {
            let k = vocab.key_of_template(t);
            prop_assert!(k >= 1);
            prop_assert_eq!(vocab.template(k), Some(t.as_str()));
        }
        prop_assert_eq!(vocab.key_of_template("never-seen-template-xyz"), 0);
        prop_assert_eq!(vocab.key_space(), templates.len() + 1);
    }

    /// Jaccard similarity is symmetric, bounded and reflexive.
    #[test]
    fn jaccard_metric_properties(
        a in prop::collection::vec(0u32..30, 0..40),
        b in prop::collection::vec(0u32..30, 0..40),
        n in 1usize..4,
    ) {
        let pa = NgramProfile::new(&a, n);
        let pb = NgramProfile::new(&b, n);
        let sim = pa.jaccard(&pb);
        prop_assert!((0.0..=1.0).contains(&sim));
        prop_assert_eq!(sim, pb.jaccard(&pa));
        prop_assert_eq!(pa.jaccard(&pa), 1.0);
        // Order-invariance of unigram profiles.
        if n == 1 {
            let mut sorted = a.clone();
            sorted.sort_unstable();
            prop_assert_eq!(NgramProfile::new(&sorted, 1).jaccard(&pa), 1.0);
        }
    }

    /// Confusion-matrix identities hold for arbitrary observation streams.
    #[test]
    fn confusion_identities(obs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
        let mut c = Confusion::default();
        for (truth, flagged) in &obs {
            c.observe(*truth, *flagged);
        }
        prop_assert_eq!(c.tp + c.fp + c.tn + c.fn_, obs.len());
        let p = c.precision();
        let r = c.recall();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&r));
        if p + r > 0.0 {
            prop_assert!((c.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
        } else {
            prop_assert_eq!(c.f1(), 0.0);
        }
        // FNR + recall = 1 whenever there are positives.
        if c.tp + c.fn_ > 0 {
            prop_assert!((c.fnr() + r - 1.0).abs() < 1e-12);
        }
    }
}

mod detector_props {
    use super::*;
    use ucad_model::{DetectionMode, Detector, DetectorConfig, TransDas, TransDasConfig};

    fn tiny_trained() -> TransDas {
        let cfg = TransDasConfig {
            vocab_size: 8,
            hidden: 8,
            heads: 2,
            blocks: 1,
            window: 6,
            epochs: 6,
            dropout_keep: 1.0,
            ..TransDasConfig::scenario1(8)
        };
        let mut model = TransDas::new(cfg);
        let sessions: Vec<Vec<u32>> = (0..6)
            .map(|i| (0..10).map(|j| ((i + j) % 4) as u32 + 1).collect())
            .collect();
        model.train(&sessions);
        model
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The detection rule is monotone in p: any session abnormal at a
        /// permissive p is also abnormal at every stricter (smaller) p.
        #[test]
        fn top_p_is_monotone(keys in prop::collection::vec(1u32..8, 3..20)) {
            let model = tiny_trained();
            let verdict = |p: usize| {
                Detector::new(&model, DetectorConfig {
                    top_p: p,
                    min_context: 2,
                    mode: DetectionMode::Streaming,
                })
                .detect_session(&keys)
                .abnormal
            };
            let verdicts: Vec<bool> = [1usize, 2, 4, 7].iter().map(|&p| verdict(p)).collect();
            for w in verdicts.windows(2) {
                // abnormal at larger p implies abnormal at smaller p.
                prop_assert!(!w[1] || w[0], "monotonicity violated: {:?}", verdicts);
            }
        }

        /// Detection is deterministic: same session, same verdict.
        #[test]
        fn detection_is_deterministic(keys in prop::collection::vec(1u32..8, 3..20)) {
            let model = tiny_trained();
            let det = Detector::new(&model, DetectorConfig {
                top_p: 3,
                min_context: 2,
                mode: DetectionMode::Block,
            });
            prop_assert_eq!(det.detect_session(&keys), det.detect_session(&keys));
        }

        /// A session containing k0 is always abnormal in both modes.
        #[test]
        fn unseen_key_always_flags(
            prefix in prop::collection::vec(1u32..8, 2..8),
            suffix in prop::collection::vec(1u32..8, 1..8),
        ) {
            let model = tiny_trained();
            let mut keys = prefix;
            keys.push(0);
            keys.extend(suffix);
            for mode in [DetectionMode::Streaming, DetectionMode::Block] {
                let det = Detector::new(&model, DetectorConfig {
                    top_p: 7,
                    min_context: 2,
                    mode,
                });
                prop_assert!(det.detect_session(&keys).abnormal);
            }
        }
    }
}
