//! Cross-check between the dynamic and static halves of MASC's assurance
//! story: the conformance harness's runtime defect hooks must be invisible
//! to `masc-lint`.
//!
//! Two properties are pinned:
//!
//! 1. **Arming independence** — the analyzer's verdict (findings *and*
//!    pragma inventory) is byte-identical whether or not a
//!    `mutation-hooks` defect is armed. Static analysis reads source, so
//!    any divergence would mean the lint run somehow observes process
//!    state — a harness bug.
//! 2. **No laundering through hook regions** — no lint pragma and no
//!    finding may sit inside a `#[cfg(feature = "mutation-hooks")]`
//!    region. Injected-defect code is exactly where a stray `allow` could
//!    hide a real violation behind "it's only test scaffolding".

use masc_lint::{find_root, run, Manifest, Report};
use std::path::{Path, PathBuf};

const HOOK_ATTR: &str = "#[cfg(feature = \"mutation-hooks\")]";

fn workspace_root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn lint_workspace(root: &Path) -> Report {
    let manifest_text =
        std::fs::read_to_string(root.join("lint-manifest.txt")).expect("lint-manifest.txt");
    let manifest = Manifest::parse(&manifest_text).expect("manifest parses");
    run(root, &manifest).expect("lint run succeeds")
}

/// A `mutation-hooks`-gated source region: file plus inclusive line span.
struct HookRegion {
    file: String,
    start: u32,
    end: u32,
}

/// Finds every `#[cfg(feature = "mutation-hooks")]` attribute in the
/// workspace sources and brace-matches the item it gates. A gated `use` or
/// module declaration ends at its `;`; a gated item/block ends at the
/// close of its first brace group.
fn hook_regions(root: &Path) -> Vec<HookRegion> {
    let mut regions = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![root.join("src"), crates_dir];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = std::fs::read_to_string(&path).expect("read source");
                collect_regions(&rel, &src, &mut regions);
            }
        }
    }
    regions
}

fn collect_regions(rel: &str, src: &str, out: &mut Vec<HookRegion>) {
    let lines: Vec<&str> = src.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if !line.contains(HOOK_ATTR) {
            continue;
        }
        let start = i as u32 + 1;
        let mut depth = 0i64;
        let mut opened = false;
        let mut end = start;
        'scan: for (j, body) in lines.iter().enumerate().skip(i + 1) {
            for c in body.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            end = j as u32 + 1;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = j as u32 + 1;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        out.push(HookRegion {
            file: rel.to_string(),
            start,
            end: end.max(start),
        });
    }
}

#[test]
fn lint_verdict_is_independent_of_armed_defects() {
    let root = workspace_root();
    masc_compress::mutation::set_defect(masc_compress::mutation::Defect::None);
    masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::None);
    let disarmed = lint_workspace(&root);
    assert!(disarmed.files > 0, "lint run scanned no files");

    let compress_defects = [
        masc_compress::mutation::Defect::WrongStampCandidate,
        masc_compress::mutation::Defect::VarintLenOffByOne,
    ];
    for defect in compress_defects {
        masc_compress::mutation::set_defect(defect);
        let armed = lint_workspace(&root);
        assert_eq!(
            disarmed.findings, armed.findings,
            "findings changed with {defect:?} armed"
        );
        assert_eq!(
            disarmed.pragmas, armed.pragmas,
            "pragma inventory changed with {defect:?} armed"
        );
        masc_compress::mutation::set_defect(masc_compress::mutation::Defect::None);
    }

    masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::StaleReplayBlock);
    let armed = lint_workspace(&root);
    assert_eq!(disarmed.findings, armed.findings);
    assert_eq!(disarmed.pragmas, armed.pragmas);
    masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::None);

    masc_serve::mutation::set_defect(masc_serve::mutation::Defect::LostWakeupClose);
    let armed = lint_workspace(&root);
    assert_eq!(
        disarmed.findings, armed.findings,
        "findings changed with LostWakeupClose armed"
    );
    assert_eq!(
        disarmed.pragmas, armed.pragmas,
        "pragma inventory changed with LostWakeupClose armed"
    );
    masc_serve::mutation::set_defect(masc_serve::mutation::Defect::None);
}

#[test]
fn no_suppression_hides_inside_mutation_hook_regions() {
    let root = workspace_root();
    let regions = hook_regions(&root);
    assert!(
        !regions.is_empty(),
        "expected mutation-hooks regions; did the feature move?"
    );
    // The serve lost-wakeup defect gates code in crates/serve/src/server.rs;
    // make sure those regions are actually seen.
    assert!(
        regions.iter().any(|r| r.file.starts_with("crates/serve/")),
        "expected mutation-hooks regions in crates/serve; did the serve defect move?"
    );

    let report = lint_workspace(&root);

    for region in &regions {
        let findings = masc_lint::workspace::findings_in_region(
            &report.findings,
            &region.file,
            region.start,
            region.end,
        );
        assert!(
            findings.is_empty(),
            "lint findings inside mutation-hooks region {}:{}-{}: {findings:?}",
            region.file,
            region.start,
            region.end
        );
        for (file, pragma) in &report.pragmas {
            let inside = file == &region.file
                && pragma.comment_line >= region.start
                && pragma.comment_line <= region.end;
            assert!(
                !inside,
                "pragma at {file}:{} hides inside mutation-hooks region {}-{}",
                pragma.comment_line, region.start, region.end
            );
        }
    }
}
