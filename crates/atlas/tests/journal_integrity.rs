//! Resume from a damaged journal: a resumed sweep must reproduce the
//! uninterrupted report byte for byte. Only a damaged header may refuse
//! it, with a typed `SpecMismatch`. It never replays a corrupted row, and
//! it counts as recovered only the cells of its own grid.

use ed_atlas::{run_atlas, AtlasError, AtlasOptions, AtlasSpec, Journal, Tier};
use std::path::PathBuf;

/// Three-bus, 2 hours × 3 E_D subsets × 2 outage columns: 12 cells.
fn spec() -> AtlasSpec {
    AtlasSpec {
        cases: vec!["three_bus".into()],
        hours: 2,
        ed_k: 2,
        contingencies: 1,
        tier: Tier::Exact,
        retries: 1,
        ..AtlasSpec::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ed-atlas-integrity-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn resume(journal: PathBuf) -> Result<ed_atlas::AtlasReport, AtlasError> {
    let mut opts = AtlasOptions::new(spec(), journal);
    opts.resume = true;
    opts.threads = 1;
    run_atlas(&opts)
}

#[test]
fn out_of_grid_results_are_not_counted_as_recovered() {
    let dir = temp_dir("out-of-grid");
    let journal = dir.join("a.journal");
    let full = run_atlas(&AtlasOptions::new(spec(), journal.clone())).unwrap();
    assert_eq!(full.rows.len(), 12);
    // A well-formed result record for a cell the grid does not have.
    let j = Journal::open_append(&journal).unwrap();
    j.result(999, "{\"cell\":999,\"outcome\":\"completed\"}")
        .unwrap();
    drop(j);

    let resumed = resume(journal).unwrap();
    assert_eq!(resumed.to_json(), full.to_json());
    assert_eq!(
        resumed.recovered_cells, 12,
        "only the grid's cells are recovered"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn mutated_journals_resume_identically_or_refuse() {
    use ed_rng::{Rng, SeedableRng, StdRng};
    let dir = temp_dir("mutants");
    let pristine_path = dir.join("pristine.journal");
    let reference = run_atlas(&AtlasOptions::new(spec(), pristine_path.clone()))
        .unwrap()
        .to_json();
    let pristine = std::fs::read(&pristine_path).unwrap();
    let header_len = pristine.iter().position(|&b| b == b'\n').unwrap() + 1;

    let mut rng = StdRng::seed_from_u64(0x0a71a5);
    let (mut identical, mut refused) = (0, 0);
    for i in 0..1_000 {
        // 1–3 byte flips, deletions, insertions or truncations.
        let mut bytes = pristine.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..bytes.len() + 1);
            match rng.gen_range(0..4u32) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.truncate(at),
                _ => bytes.insert(at, rng.gen::<u8>()),
            }
        }
        let header_intact = bytes.starts_with(&pristine[..header_len]);
        let path = dir.join(format!("mutant-{i}.journal"));
        std::fs::write(&path, &bytes).unwrap();
        match resume(path.clone()) {
            Ok(report) => {
                assert!(
                    report.to_json() == reference,
                    "mutant {i} resumed to a different report"
                );
                identical += 1;
            }
            // Without its header (line and `\n`) the journal cannot say
            // which grid it belongs to. Any other damage tears records,
            // whose cells are recomputed.
            Err(AtlasError::SpecMismatch { .. }) if !header_intact => refused += 1,
            Err(e) => panic!("mutant {i}: {e}"),
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        identical > 0 && refused > 0,
        "{identical} identical, {refused} refused"
    );
    std::fs::remove_dir_all(dir).ok();
}
