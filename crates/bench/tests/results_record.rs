//! The committed record under `results/` stays regenerable: every file is
//! a TSV whose header names the bench command that made it, and no column
//! folds the simulated and the measured clock into one "elapsed" figure.

use std::path::Path;

#[test]
fn every_result_names_its_command_and_keeps_two_clocks() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".tsv"),
            "{name}: results/ holds only the TSVs a bench command writes"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines().skip(1);
        let command = lines.next().unwrap_or_default();
        let words: Vec<&str> = command.split_whitespace().collect();
        let bin = words.windows(2).find(|w| w[0] == "--bin").map(|w| w[1]);
        assert!(
            command.starts_with("# command: ")
                && matches!(bin, Some("table2" | "fig6" | "ablation")),
            "{name}: second line must be `# command: … --bin table2|fig6|ablation …`, \
             got {command:?}"
        );
        let columns = lines.next().unwrap_or_default();
        for col in columns.split('\t') {
            assert!(
                !col.contains("elapsed"),
                "{name}: column {col:?} — print sim_s and cpu_s apart"
            );
        }
        files += 1;
    }
    assert!(files > 0, "no results under {}", dir.display());
}
