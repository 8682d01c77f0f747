//! Paper-style rendering of relations (Figs. 1–2).
//!
//! The figures in the paper draw NFRs as boxed tables whose cells list the
//! member values of each component, e.g.
//!
//! ```text
//! | Student    | Course     | Club |
//! |------------|------------|------|
//! | s1         | c1, c2, c3 | b1   |
//! ```
//!
//! These helpers produce the same shape using a [`Dictionary`] to resolve
//! atom names. A 1NF relation renders as the NFR of its singleton tuples
//! ([`NfRelation::from_flat`]), whose sorted order is its rows' order.

use crate::relation::NfRelation;
use crate::value::Dictionary;

/// Renders an NFR as an ASCII table in the style of Fig. 1.
///
/// Tuples are printed in canonical sorted order so output is deterministic.
pub fn render_nf(rel: &NfRelation, dict: &Dictionary) -> String {
    let headers: Vec<String> = rel.schema().attr_names().map(str::to_owned).collect();
    let rows: Vec<Vec<String>> = rel
        .sorted_tuples()
        .iter()
        .map(|t| {
            t.components()
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|a| dict.resolve_or_id(a))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect()
        })
        .collect();
    render_table(rel.schema().name(), &headers, &rows)
}

/// Generic fixed-width table rendering shared by [`render_nf`] and the
/// bench harness's report tables.
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    if !title.is_empty() {
        out.push_str(title);
        out.push('\n');
    }
    let rule = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    let line = |out: &mut String, cells: &[String]| {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            out.push(' ');
            out.push_str(cell);
            out.push_str(&" ".repeat(w - cell.len() + 1));
            out.push('|');
        }
        out.push('\n');
    };
    rule(&mut out);
    line(&mut out, headers);
    rule(&mut out);
    for row in rows {
        line(&mut out, row);
    }
    rule(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::NfRelation;
    use crate::schema::Schema;
    use crate::tuple::{NfTuple, ValueSet};
    use crate::value::{Atom, Dictionary};

    #[test]
    fn renders_fig1_style_table() {
        let mut dict = Dictionary::new();
        let s1 = dict.intern("s1");
        let c1 = dict.intern("c1");
        let c2 = dict.intern("c2");
        let b1 = dict.intern("b1");
        let schema = Schema::new("R1", &["Student", "Course", "Club"]).unwrap();
        let rel = NfRelation::from_tuples(
            schema,
            vec![NfTuple::new(vec![
                ValueSet::singleton(s1),
                ValueSet::new(vec![c1, c2]).unwrap(),
                ValueSet::singleton(b1),
            ])],
        )
        .unwrap();
        let table = render_nf(&rel, &dict);
        assert!(table.contains("R1"));
        assert!(table.contains("Student"));
        assert!(table.contains("c1, c2"));
        assert!(table.contains("| s1"));
    }

    #[test]
    fn unresolved_atoms_fall_back_to_ids() {
        let dict = Dictionary::new();
        let schema = Schema::new("R", &["A"]).unwrap();
        let rel = NfRelation::from_tuples(
            schema,
            vec![NfTuple::new(vec![ValueSet::singleton(Atom(7))])],
        )
        .unwrap();
        assert!(render_nf(&rel, &dict).contains("@7"));
    }

    #[test]
    fn table_widths_accommodate_long_cells() {
        let headers = vec!["A".to_owned()];
        let rows = vec![vec!["a-very-long-value".to_owned()]];
        let t = render_table("T", &headers, &rows);
        for line in t.lines().filter(|l| l.starts_with('+')) {
            assert_eq!(line.len(), "a-very-long-value".len() + 4);
        }
    }
}
