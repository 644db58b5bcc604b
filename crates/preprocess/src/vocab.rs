//! Statement-key vocabulary (§5.1).
//!
//! Keys start at `k1`; key `k0` is reserved for padding and for statements
//! that first appear during detection (the paper's "newly appeared
//! statements" rule). The vocabulary built during training is frozen and
//! reused verbatim at detection time.

use crate::abstraction::abstract_statement;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use ucad_trace::Session;

/// Reserved key for padding and unseen statements.
pub const UNKNOWN_KEY: u32 = 0;

/// A frozen mapping from abstract statements to integer keys.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    key_of: HashMap<String, u32>,
    template_of: Vec<String>,
}

impl Vocabulary {
    /// Builds a vocabulary from abstract statement templates, assigning keys
    /// in first-seen order starting from 1.
    pub fn from_templates<I: IntoIterator<Item = String>>(templates: I) -> Self {
        let mut v = Vocabulary::default();
        for t in templates {
            v.intern(t);
        }
        v
    }

    /// Builds a vocabulary from raw SQL sessions (abstracting each op).
    pub fn from_sessions(sessions: &[Session]) -> Self {
        Self::build_tokenized(sessions).0
    }

    /// Builds a vocabulary from raw SQL sessions and returns each session's
    /// key sequence with it, abstracting every statement once. Keys are
    /// assigned in first-seen order, so both halves equal
    /// [`Vocabulary::from_sessions`] followed by
    /// [`Vocabulary::tokenize_session`] on every session.
    pub fn build_tokenized<'a>(
        sessions: impl IntoIterator<Item = &'a Session>,
    ) -> (Self, Vec<Vec<u32>>) {
        let mut v = Vocabulary::default();
        let keys = sessions
            .into_iter()
            .map(|s| {
                s.ops
                    .iter()
                    .map(|op| v.intern(abstract_statement(&op.sql)))
                    .collect()
            })
            .collect();
        (v, keys)
    }

    /// Builds a vocabulary from pre-templated event sequences (system logs).
    pub fn from_event_sessions(sessions: &[Vec<String>]) -> Self {
        let mut v = Vocabulary::default();
        for s in sessions {
            for e in s {
                v.intern(e.clone());
            }
        }
        v
    }

    fn intern(&mut self, template: String) -> u32 {
        if let Some(&k) = self.key_of.get(&template) {
            return k;
        }
        let k = self.template_of.len() as u32 + 1;
        self.key_of.insert(template.clone(), k);
        self.template_of.push(template);
        k
    }

    /// Number of known keys (excluding the reserved `k0`).
    pub fn len(&self) -> usize {
        self.template_of.len()
    }

    /// True when no keys are known.
    pub fn is_empty(&self) -> bool {
        self.template_of.is_empty()
    }

    /// Total key-space size including `k0` — the embedding-table row count.
    pub fn key_space(&self) -> usize {
        self.template_of.len() + 1
    }

    /// Looks up an already-abstracted template. Unknown templates map to
    /// [`UNKNOWN_KEY`].
    pub fn key_of_template(&self, template: &str) -> u32 {
        self.key_of.get(template).copied().unwrap_or(UNKNOWN_KEY)
    }

    /// Abstracts and tokenizes one raw SQL statement.
    pub fn key_of_sql(&self, sql: &str) -> u32 {
        self.key_of_template(&abstract_statement(sql))
    }

    /// Tokenizes a raw SQL session into a key sequence.
    pub fn tokenize_session(&self, session: &Session) -> Vec<u32> {
        session
            .ops
            .iter()
            .map(|op| self.key_of_sql(&op.sql))
            .collect()
    }

    /// Tokenizes a templated event sequence.
    pub fn tokenize_events(&self, events: &[String]) -> Vec<u32> {
        events.iter().map(|e| self.key_of_template(e)).collect()
    }

    /// Template text for a key (None for `k0`/out-of-range).
    pub fn template(&self, key: u32) -> Option<&str> {
        if key == 0 {
            return None;
        }
        self.template_of.get(key as usize - 1).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_start_at_one_and_are_stable() {
        let v = Vocabulary::from_templates(vec![
            "A".to_string(),
            "B".to_string(),
            "A".to_string(),
            "C".to_string(),
        ]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.key_of_template("A"), 1);
        assert_eq!(v.key_of_template("B"), 2);
        assert_eq!(v.key_of_template("C"), 3);
        assert_eq!(v.key_of_template("D"), UNKNOWN_KEY);
        assert_eq!(v.key_space(), 4);
    }

    #[test]
    fn sql_statements_with_same_shape_share_a_key() {
        let v = Vocabulary::from_templates(vec![crate::abstraction::abstract_statement(
            "SELECT * FROM t WHERE a=1",
        )]);
        assert_eq!(v.key_of_sql("SELECT * FROM t WHERE a=1"), 1);
        assert_eq!(v.key_of_sql("SELECT * FROM t WHERE a=42"), 1);
        assert_eq!(v.key_of_sql("SELECT * FROM t WHERE b=42"), UNKNOWN_KEY);
    }

    #[test]
    fn template_lookup_roundtrips() {
        let v = Vocabulary::from_templates(vec!["X".into(), "Y".into()]);
        assert_eq!(v.template(1), Some("X"));
        assert_eq!(v.template(2), Some("Y"));
        assert_eq!(v.template(0), None);
        assert_eq!(v.template(9), None);
    }
}
