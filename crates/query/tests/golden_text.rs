//! The text of each kind of output, pinned byte for byte.
//!
//! An [`Output`](nf2_query::Output) is its relation; its boxed table
//! (Figs. 1–2) is rendered through the engine's dictionary when asked.
//! These goldens hold that text for a point SELECT, a join, an
//! `ORDER BY … LIMIT`, SHOW and SHOW FLAT, NEST and UNNEST, and COUNT,
//! on two small tables whose atoms are interned out of name order, so
//! the text shows that rows print in atom order (`s2` before `s1`). The
//! engine pins one shard, so the text reads the same under any
//! `NF2_SHARDS`.

use nf2_query::Engine;

fn engine() -> Engine {
    let engine = Engine::builder().shards(1).build().unwrap();
    engine
        .session()
        .run_script(
            "CREATE TABLE sc (Student, Course, Club) NEST ORDER (Student, Course, Club);\n\
             INSERT INTO sc VALUES ('s2','c2','b1'), ('s1','c1','b1'), ('s1','c2','b1'), ('s3','c1','b2');\n\
             CREATE TABLE cp (Course, Prof) NEST ORDER (Course, Prof);\n\
             INSERT INTO cp VALUES ('c1','p1'), ('c2','p2'), ('c2','p1');",
        )
        .unwrap();
    engine
}

/// Each statement and the text its output renders as.
const GOLDEN: &[(&str, &str)] = &[
    (
        "SELECT Course, Club FROM sc WHERE Student = 's1'",
        "\
sc_proj
+--------+------+
| Course | Club |
+--------+------+
| c2     | b1   |
| c1     | b1   |
+--------+------+
",
    ),
    (
        "SELECT Student, Prof FROM sc JOIN cp WHERE Club = 'b1'",
        "\
sc_join_cp_proj
+---------+--------+
| Student | Prof   |
+---------+--------+
| s2, s1  | p1, p2 |
+---------+--------+
",
    ),
    (
        "SELECT Student, Course FROM sc ORDER BY Student DESC LIMIT 2",
        "\
sc_proj
+---------+--------+
| Student | Course |
+---------+--------+
| s2, s1  | c2     |
| s3      | c1     |
+---------+--------+
",
    ),
    (
        "SHOW sc",
        "\
sc
+---------+--------+------+
| Student | Course | Club |
+---------+--------+------+
| s2, s1  | c2     | b1   |
| s1      | c1     | b1   |
| s3      | c1     | b2   |
+---------+--------+------+
",
    ),
    (
        "SHOW FLAT sc",
        "\
sc
+---------+--------+------+
| Student | Course | Club |
+---------+--------+------+
| s2      | c2     | b1   |
| s1      | c2     | b1   |
| s1      | c1     | b1   |
| s3      | c1     | b2   |
+---------+--------+------+
",
    ),
    (
        "NEST sc ON Course",
        "\
sc
+---------+--------+------+
| Student | Course | Club |
+---------+--------+------+
| s2, s1  | c2     | b1   |
| s1      | c1     | b1   |
| s3      | c1     | b2   |
+---------+--------+------+
",
    ),
    (
        "UNNEST sc ON Student",
        "\
sc
+---------+--------+------+
| Student | Course | Club |
+---------+--------+------+
| s2      | c2     | b1   |
| s1      | c2     | b1   |
| s1      | c1     | b1   |
| s3      | c1     | b2   |
+---------+--------+------+
",
    ),
    ("SELECT COUNT(*) FROM sc WHERE Club = 'b1'", "3"),
];

#[test]
fn every_kind_of_output_renders_its_golden_text() {
    let engine = engine();
    let mut session = engine.session();
    for (sql, golden) in GOLDEN {
        let out = session.run(sql).unwrap();
        let text = out.to_text();
        assert_eq!(&text, golden, "{sql}");
        assert_eq!(out.to_string(), text, "{sql}: Display reads as to_text");
    }
}
