//! Statement abstraction: literals → `$k` placeholders (§5.1).
//!
//! The paper's tokenization assigns one key per *abstract* statement so that
//! fine-grained differences (different columns, different `IN` arity,
//! different tuple counts) stay distinguishable while concrete literal values
//! (which would explode the vocabulary and leak user data) are folded away.
//! The supported SQL subset's grammar lives in `ucad_dbsim::parser`; this
//! module adds only the literal-level fallback for everything else.

use std::fmt::Write;
use ucad_dbsim::abstract_template;

/// Abstracts one SQL statement: every literal becomes `$k`, numbered in
/// order of appearance. Statements in the supported subset get
/// [`abstract_template`]'s canonical form; the rest fall back to
/// [`abstract_literals`], so the tokenizer never drops input.
pub fn abstract_statement(sql: &str) -> String {
    abstract_template(sql).unwrap_or_else(|| abstract_literals(sql))
}

/// Literal-level fallback abstraction: numbers and quoted strings become
/// `$k`; everything else is copied unchanged. Used for statements outside
/// the parsed subset and for free-form log lines.
pub fn abstract_literals(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    // Start of the not-yet-copied span. Literals begin and end at ASCII
    // bytes, so every span boundary is a char boundary.
    let mut copied = 0;
    let mut i = 0;
    let mut counter = 0usize;
    while i < bytes.len() {
        let end = match bytes[i] {
            b'\'' => bytes[i + 1..]
                .iter()
                .position(|&b| b == b'\'')
                .map_or(bytes.len(), |len| i + len + 2),
            b'0'..=b'9'
                if i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') =>
            {
                i + 1
                    + bytes[i + 1..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count()
            }
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&text[copied..i]);
        counter += 1;
        let _ = write!(out, "${counter}");
        i = end;
        copied = end;
    }
    out.push_str(&text[copied..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstracts_the_paper_example() {
        // "Update T_content set count=23 where danmuKey=94" →
        // "UPDATE T_content SET count=$1 WHERE danmuKey=$2"
        let a = abstract_statement("Update T_content set count=23 where danmuKey=94");
        assert_eq!(a, "UPDATE T_content SET count=$1 WHERE danmuKey=$2");
    }

    #[test]
    fn identical_shapes_get_identical_abstractions() {
        let a = abstract_statement("SELECT * FROM t WHERE a=1 and b IN (2, 3)");
        let b = abstract_statement("SELECT * FROM t WHERE a=99 and b IN (7, 1000)");
        assert_eq!(a, b);
    }

    #[test]
    fn different_in_arity_stays_distinguishable() {
        let a = abstract_statement("SELECT * FROM t WHERE b IN (1, 2)");
        let b = abstract_statement("SELECT * FROM t WHERE b IN (1, 2, 3)");
        assert_ne!(a, b);
    }

    #[test]
    fn different_columns_stay_distinguishable() {
        // The paper's motivating example: normal_mac vs abnormal_mac must
        // get different keys even though the statements are literally close.
        let a = abstract_statement("DELETE FROM t_mac WHERE normal_mac=1");
        let b = abstract_statement("DELETE FROM t_mac WHERE abnormal_mac=1");
        assert_ne!(a, b);
    }

    #[test]
    fn different_tuple_counts_stay_distinguishable() {
        let a = abstract_statement("INSERT INTO t (a, b) VALUES (1, 2)");
        let b = abstract_statement("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)");
        assert_ne!(a, b);
    }

    #[test]
    fn placeholders_are_sequential() {
        let a = abstract_statement("INSERT INTO t (a, b, c) VALUES (1, 'x', 3)");
        assert_eq!(a, "INSERT INTO t (a, b, c) VALUES ($1, $2, $3)");
    }

    #[test]
    fn string_literals_are_abstracted() {
        let a = abstract_statement("UPDATE t SET name='alice' WHERE id=7");
        let b = abstract_statement("UPDATE t SET name='bob' WHERE id=8");
        assert_eq!(a, b);
        assert!(!a.contains("alice"));
    }

    #[test]
    fn fallback_handles_unparseable_text() {
        let a = abstract_literals("DROP TABLE users; -- 42 'oops'");
        assert!(a.contains("$1"));
        assert!(!a.contains("42"));
        assert!(!a.contains("oops"));
    }

    #[test]
    fn fallback_keeps_identifier_digits() {
        // Table names like t_cell_fp_3 must keep their digits: they are part
        // of the identifier, not literals.
        let a = abstract_literals("SELECT broken FROM t_cell_fp_3 WHERE ???=5");
        assert!(
            a.contains("t_cell_fp_3"),
            "identifier digits must survive: {a}"
        );
        assert!(!a.contains("=5"));
    }

    #[test]
    fn fallback_keeps_non_ascii_text_intact() {
        assert_eq!(
            abstract_literals("SELECT na\u{ef}ve FROM t WHERE a=1"),
            "SELECT na\u{ef}ve FROM t WHERE a=$1"
        );
        assert_eq!(
            abstract_literals("DROP TABLE caf\u{e9}; -- 42"),
            "DROP TABLE caf\u{e9}; -- $1"
        );
        // Quoted non-ASCII text is a literal like any other.
        assert_eq!(
            abstract_literals("DROP TABLE \u{00fc}ber WHERE x='\u{65e5}\u{672c}' AND y=7"),
            "DROP TABLE \u{00fc}ber WHERE x=$1 AND y=$2"
        );
        // Outside the parsed subset, so these reach the fallback whole.
        assert_eq!(
            abstract_statement("SELECT * FROM t WHERE n='Zo\u{eb}' AND caf\u{e9}=3"),
            "SELECT * FROM t WHERE n=$1 AND caf\u{e9}=$2"
        );
    }

    #[test]
    fn non_ascii_string_literals_parse_and_abstract() {
        assert_eq!(
            abstract_statement("UPDATE t SET name='J\u{fc}rgen' WHERE id=7"),
            "UPDATE t SET name=$1 WHERE id=$2"
        );
    }

    #[test]
    fn fallback_closes_an_unterminated_quote_at_end_of_text() {
        assert_eq!(abstract_literals("a='open 12"), "a=$1");
        assert_eq!(abstract_literals("x1 1x _2 (3)"), "x1 $1x _2 ($2)");
    }

    #[test]
    fn abstraction_is_idempotent() {
        let once = abstract_statement("SELECT * FROM t WHERE a=1");
        let twice = abstract_statement(&once);
        assert_eq!(once, twice);
    }
}
