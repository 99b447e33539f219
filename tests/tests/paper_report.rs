//! Pins the paper's numbers: the quick-scale report of every table and figure must equal
//! the committed reference byte for byte.
//!
//! The simulator goldens cannot see a change to synthesis RNG order, model fitting or
//! report rendering; this test can.  The reference is the file the end-to-end benchmark
//! checks too (`e2e_bench/refs/paper_quick.txt`), included here so only one copy exists.
//! If a change *intends* to alter the report, regenerate that file with
//! `reproduce_all quick` (dropping `println!`'s extra trailing newline) in the same
//! change, so the diff gets reviewed.

use mp_bench::{ExperimentScale, Experiments};

const REFERENCE: &str = include_str!("../../e2e_bench/refs/paper_quick.txt");

#[test]
fn quick_report_equals_the_committed_reference() {
    let report = Experiments::new(ExperimentScale::Quick).run_all();
    if report == REFERENCE {
        return;
    }
    let mut actual = report.lines();
    let mut expected = REFERENCE.lines();
    for line in 1.. {
        match (actual.next(), expected.next()) {
            (Some(a), Some(e)) if a == e => {}
            (None, None) => break,
            (a, e) => panic!(
                "report differs from e2e_bench/refs/paper_quick.txt at line {line}\n  \
                 actual:   {a:?}\n  expected: {e:?}"
            ),
        }
    }
    panic!("report has the lines of e2e_bench/refs/paper_quick.txt but not its line endings");
}
