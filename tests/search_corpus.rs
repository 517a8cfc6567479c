//! Regression corpus replay: every reproducer committed under
//! `results/search/corpus/` re-runs in its recorded scenario and must
//! reproduce its recorded fitness — exact detection count, damage value
//! within CSV-printing tolerance.
//!
//! A defender improvement that neutralizes an old attack shows up here
//! as a (welcome) failure prompting a corpus refresh; a simulator change
//! that silently breaks replay determinism shows up the same way.

use std::path::Path;

use triad_tt::experiments::search::replay_close;
use triad_tt::search::Reproducer;

#[test]
fn committed_reproducers_replay_to_recorded_fitness() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/search/corpus");
    let corpus = Reproducer::load_dir(&dir).expect("corpus directory readable");
    assert!(
        !corpus.is_empty(),
        "no committed reproducers under {} — run `triad-experiments search` and commit its corpus",
        dir.display()
    );
    for rep in &corpus {
        let measured = rep.replay();
        assert!(
            replay_close(&measured, &rep.fitness),
            "reproducer {} drifted: recorded {:?}, measured {:?}",
            rep.name,
            rep.fitness,
            measured
        );
    }
}

/// The committed text is the format: every `.scn` the repo carries must
/// decode and re-encode to the same bytes through the shared readers.
#[test]
fn committed_scn_files_round_trip_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for dir in ["results/search/corpus", "bench/inputs"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("directory readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "scn") {
                let text = std::fs::read_to_string(&path).expect("file readable");
                let rep = Reproducer::decode(&text)
                    .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
                assert_eq!(rep.encode(), text, "{} changed in a round trip", path.display());
                seen += 1;
            }
        }
    }
    assert_eq!(seen, 6, "four corpus reproducers and two benchmark inputs");
}
