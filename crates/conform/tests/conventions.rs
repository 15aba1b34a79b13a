//! Source conventions that clippy cannot state (DESIGN.md §3.10, rule R3),
//! checked over the workspace's library source:
//!
//! - no `pub fn` returns `Result<_, String | &str | Box<dyn …>>`: public
//!   APIs surface a structured error type (a `()` payload is clippy's
//!   `result_unit_err`);
//! - every `pub enum *Error` implements `Display` and `std::error::Error`
//!   somewhere in its crate;
//! - no `allow`/`expect` attribute sits inside a
//!   `#[cfg(feature = "mutation-hooks")]` region, where a suppression could
//!   hide a real violation behind "it's only test scaffolding";
//! - no library code outside `crates/bitio/src` calls `varint::read_u64`:
//!   decoders read varints through `masc_bitio::cursor::ByteCursor`, the
//!   one owner of bounding a read against the bytes that remain.
//! - no device model under `crates/circuit/src/devices/` and no library
//!   code in `crates/circuit/src/stamp.rs` calls `add_at(` or `.find(` or
//!   names `CsrMatrix`: device evaluation writes `G`/`C` through the slots
//!   bound at elaboration, so it performs no pattern search (DESIGN.md
//!   §3.16).
//!
//! Library source is `src/` of every crate that has a `src/lib.rs`, minus
//! `main.rs` and `src/bin/`, read up to the file's first `#[cfg(test)]`.

use std::path::{Path, PathBuf};

const HOOK_ATTR: &str = "#[cfg(feature = \"mutation-hooks\")]";

/// `(file, fn, reason)` for the public functions allowed a string error.
const PAYLOAD_EXEMPTIONS: [(&str, &str, &str); 2] = [
    (
        "crates/conform/src/corpus.rs",
        "from_bytes",
        "fuzz-harness diagnostics are freeform strings shown to the operator, not matched on",
    ),
    (
        "crates/conform/src/oracle.rs",
        "run_input",
        "the oracle protocol reports freeform failure diagnostics; they are printed, never matched on",
    ),
];

/// `(file, reason)` for the library files allowed to call
/// `varint::read_u64` outside `masc-bitio`.
const CURSOR_EXEMPTIONS: [(&str, &str); 1] = [(
    "crates/conform/src/oracles/codec.rs",
    "the codec-decode oracle fuzzes the varint reader itself, so it must call it on raw bytes",
)];

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root")
}

/// Every `.rs` file under `dir`, as (workspace-relative path, contents).
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path).expect("read source")));
        }
    }
}

/// Library source per crate: `(file, source before #[cfg(test)])` lists.
fn library_crates(root: &Path) -> Vec<Vec<(String, String)>> {
    let mut crate_dirs = vec![root.to_path_buf()];
    let members = std::fs::read_dir(root.join("crates")).expect("crates dir");
    crate_dirs.extend(members.flatten().map(|e| e.path()));
    let mut crates = Vec::new();
    for dir in crate_dirs {
        if !dir.join("src/lib.rs").is_file() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(root, &dir.join("src"), &mut files);
        files.retain(|(rel, _)| !rel.ends_with("/main.rs") && !rel.contains("/src/bin/"));
        for (_, src) in &mut files {
            let test_attr = src.match_indices("#[cfg(test)]").find(|&(at, _)| {
                let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
                src[line_start..at].trim().is_empty()
            });
            if let Some((cut, _)) = test_attr {
                src.truncate(cut);
            }
        }
        crates.push(files);
    }
    assert!(
        crates.len() > 10,
        "found only {} library crates",
        crates.len()
    );
    crates
}

/// The error type of a `Result<T, E>` return in `signature`, if any.
fn result_error_type(signature: &str) -> Option<&str> {
    let ret = &signature[signature.find("->")? + 2..];
    let args = &ret[ret.find("Result<")? + "Result<".len()..];
    let (mut depth, mut comma) = (0i32, None);
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' if depth == 0 => return Some(args[comma? + 1..i].trim()),
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => comma = Some(i),
            _ => {}
        }
    }
    None
}

/// Name and signature (up to its body or `where`) of each `pub fn` in `src`.
fn pub_fns(src: &str) -> Vec<(String, String)> {
    let mut fns = Vec::new();
    for (at, _) in src.match_indices("pub ") {
        let rest = &src[at + "pub ".len()..];
        let rest = ["const ", "async ", "unsafe "]
            .iter()
            .fold(rest, |r, m| r.strip_prefix(m).unwrap_or(r));
        let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
        let Some(rest) = rest.strip_prefix("fn ") else {
            continue;
        };
        if src[line_start..at].contains("//") {
            continue;
        }
        let end = rest.find(['{', ';']).unwrap_or(rest.len());
        let signature = rest[..end].split(" where").next().unwrap_or_default();
        let name = signature.split(['(', '<']).next().unwrap_or_default();
        fns.push((name.trim().to_string(), signature.to_string()));
    }
    fns
}

#[test]
fn pub_fns_return_structured_errors() {
    let root = workspace_root();
    let mut used = [false; PAYLOAD_EXEMPTIONS.len()];
    let mut offenders = Vec::new();
    for files in library_crates(&root) {
        for (file, src) in &files {
            for (name, signature) in pub_fns(src) {
                let Some(err) = result_error_type(&signature) else {
                    continue;
                };
                let borrowed_str = err.starts_with('&') && err.ends_with("str");
                let stringly = err == "String" || borrowed_str || err.contains("dyn ");
                if !stringly {
                    continue;
                }
                match PAYLOAD_EXEMPTIONS
                    .iter()
                    .position(|&(f, n, _)| f == file && n == name)
                {
                    Some(i) => used[i] = true,
                    None => offenders.push(format!("{file}: `pub fn {name}` -> Result<_, {err}>")),
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "use a crate-local structured error type: {offenders:#?}"
    );
    for (&(file, name, _), used) in PAYLOAD_EXEMPTIONS.iter().zip(used) {
        assert!(
            used,
            "exemption ({file}, {name}) matches nothing; remove it"
        );
    }
}

#[test]
fn error_enums_implement_display_and_error() {
    let root = workspace_root();
    let mut missing = Vec::new();
    for files in library_crates(&root) {
        let implements = |trait_name: &str, ty: &str| {
            let needle = format!("{trait_name} for {ty}");
            files.iter().flat_map(|(_, src)| src.lines()).any(|line| {
                let line = line.trim_start();
                line.starts_with("impl")
                    && line.match_indices(&needle).any(|(i, _)| {
                        let after = line[i + needle.len()..].chars().next();
                        !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    })
            })
        };
        for (file, src) in &files {
            for line in src.lines() {
                let Some(rest) = line.trim_start().strip_prefix("pub enum ") else {
                    continue;
                };
                let name = rest
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next();
                let name = name.unwrap_or_default();
                if !name.ends_with("Error") {
                    continue;
                }
                for trait_name in ["Display", "Error"] {
                    if !implements(trait_name, name) {
                        missing.push(format!("{file}: `{name}` lacks `{trait_name}`"));
                    }
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "error enums without impls: {missing:#?}"
    );
}

#[test]
fn decoders_read_varints_through_the_byte_cursor() {
    let root = workspace_root();
    let mut used = [false; CURSOR_EXEMPTIONS.len()];
    let mut offenders = Vec::new();
    for files in library_crates(&root) {
        for (file, src) in &files {
            if file.starts_with("crates/bitio/src/") {
                continue;
            }
            for (i, line) in src.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                // `BitReader::read_u64` is a method (`.read_u64(`); the
                // varint reader is called by path or as an import.
                let calls_varint = line
                    .match_indices("read_u64(")
                    .any(|(at, _)| !line[..at].ends_with('.'));
                if !calls_varint {
                    continue;
                }
                match CURSOR_EXEMPTIONS.iter().position(|&(f, _)| f == file) {
                    Some(e) => used[e] = true,
                    None => offenders.push(format!("{file}:{}", i + 1)),
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "read varints through `masc_bitio::cursor::ByteCursor`: {offenders:#?}"
    );
    for (&(file, _), used) in CURSOR_EXEMPTIONS.iter().zip(used) {
        assert!(used, "exemption {file} matches nothing; remove it");
    }
}

#[test]
fn device_evaluation_never_searches_the_pattern() {
    let root = workspace_root();
    let mut scanned = 0;
    let mut offenders = Vec::new();
    for files in library_crates(&root) {
        for (file, src) in &files {
            if !(file.starts_with("crates/circuit/src/devices/")
                || file == "crates/circuit/src/stamp.rs")
            {
                continue;
            }
            scanned += 1;
            for (i, line) in src.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                if ["add_at(", ".find(", "CsrMatrix"]
                    .iter()
                    .any(|needle| line.contains(needle))
                {
                    offenders.push(format!("{file}:{}", i + 1));
                }
            }
        }
    }
    assert!(
        scanned >= 8,
        "found {scanned} device and stamp files; did they move?"
    );
    assert!(
        offenders.is_empty(),
        "device evaluation must write G/C through bound slots, not search the pattern: {offenders:#?}"
    );
}

#[test]
fn no_suppression_hides_inside_mutation_hook_regions() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &root.join("src"), &mut files);
    rust_files(&root, &root.join("crates"), &mut files);
    let mut regions = 0;
    let mut hidden = Vec::new();
    for (file, src) in &files {
        let lines: Vec<&str> = src.lines().collect();
        for (start, _) in lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.trim_start().starts_with(HOOK_ATTR))
        {
            let end = hook_region_end(&lines, start);
            regions += 1;
            for (i, line) in lines.iter().enumerate().take(end + 1).skip(start) {
                let line = line.trim_start();
                let attr = line.starts_with("#[") || line.starts_with("#![");
                if attr && (line.contains("allow(") || line.contains("expect(")) {
                    hidden.push(format!("{file}:{}", i + 1));
                }
            }
        }
    }
    assert!(
        regions > 0,
        "expected mutation-hooks regions; did the feature move?"
    );
    assert!(
        hidden.is_empty(),
        "suppressions inside mutation-hooks regions: {hidden:?}"
    );
}

/// Last line (0-based) of the item a hook attribute at `start` gates: a
/// gated `use` or module declaration ends at its `;`, a gated item or
/// block at the close of its first brace group.
fn hook_region_end(lines: &[&str], start: usize) -> usize {
    let mut depth = 0i64;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start + 1) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth <= 0 {
                        return j;
                    }
                }
                ';' if !opened => return j,
                _ => {}
            }
        }
    }
    start
}
