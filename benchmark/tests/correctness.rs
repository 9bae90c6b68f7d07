//! A wrong answer must show: as a failed op, a failed share above zero, and
//! a nonzero exit.

use mst_benchmark::run::{run_one, RunArgs};
use mst_benchmark::spec::Workload;
use mst_benchmark::workloads::Expected;

fn short(workload: Workload) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 0.3,
        traced: false,
        smoke: true,
    }
}

#[test]
fn a_wrong_expected_value_fails_ops_and_the_run() {
    let committed = Expected::committed();

    let ok = run_one(&short(Workload::MacroSolo), &committed);
    assert!(ok.correct && ok.failed == 0, "{:?}", ok.notes);
    assert_eq!(ok.exit_code(), 0);

    // One deliberately wrong macro answer: every sweep fails.
    let mut wrong = committed.clone();
    wrong.macros[2] = "640".to_string();
    let bad = run_one(&short(Workload::MacroSolo), &wrong);
    assert_eq!(bad.failed, bad.attempted);
    assert!(bad.failed_share() > 0.0);
    assert!(!bad.correct);
    assert_ne!(bad.exit_code(), 0);
    assert!(
        bad.notes.iter().any(|n| n.contains("printClassHierarchy")),
        "{:?}",
        bad.notes
    );

    // One wrong doit answer: about a quarter of the requests fail.
    let mut wrong = committed;
    wrong.doits[3] = "43".to_string();
    let bad = run_one(&short(Workload::ServeSteady), &wrong);
    assert!(bad.failed > 0 && bad.failed < bad.attempted);
    assert!(bad.failed_share() > 0.0);
    assert_ne!(bad.exit_code(), 0);
}

#[test]
fn expected_file_is_checked_on_load() {
    assert!(
        Expected::parse("findAllCalls 13").is_err(),
        "seven selectors missing"
    );
    assert!(Expected::parse("noSuchSelector 1").is_err());
    let text = include_str!("../expected/macro.txt");
    assert!(
        Expected::parse(&format!("{text}\nfindAllCalls 13")).is_err(),
        "listed twice"
    );
    assert_eq!(Expected::parse(text).unwrap(), Expected::committed());
}
