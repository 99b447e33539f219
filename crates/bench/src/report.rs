//! The uniform closing report every experiment binary prints.
//!
//! Each binary ends the same way: the scheduling-independent `# Runtime` stats line on
//! stdout, then the stderr-only observability (persistent-store accounting, gated
//! telemetry).  The split is load-bearing for CI — stdout must stay byte-identical
//! across `MP_THREADS` settings and across cold vs warm `MP_STORE_DIR` runs, so
//! everything variable goes to stderr.  Centralising the footer here keeps the
//! five binaries from drifting apart on that contract.

use microprobe::platform::Platform;
use mp_runtime::ExperimentSession;

/// Prints the full footer: the `# Runtime` stats line (stdout), then the stderr-only
/// store accounting and telemetry report.
pub fn conclude<P: Platform>(session: &ExperimentSession<P>) {
    println!("{}", session.stats().summary_line());
    conclude_quietly(session);
}

/// The stderr-only half of the footer, for binaries whose stdout already carries the
/// stats line (e.g. `reproduce_all`, where it is part of `run_all`'s output).
pub fn conclude_quietly<P: Platform>(session: &ExperimentSession<P>) {
    session.report_store();
    mp_telemetry::report();
}

/// Footer over several labelled sessions (e.g. one per backend): each session's
/// labelled stats line on stdout and store accounting on stderr, then one telemetry
/// report for the process.
pub fn conclude_labeled<'a, P, I>(sessions: I)
where
    P: Platform + 'a,
    I: IntoIterator<Item = (&'a str, &'a ExperimentSession<P>)>,
{
    for (label, session) in sessions {
        println!("{}", session.stats().summary_line_for(label));
        session.report_store();
    }
    mp_telemetry::report();
}
