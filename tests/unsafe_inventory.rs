//! `UNSAFE_INVENTORY.md` lists every use of the `unsafe` keyword under
//! `crates/*/src` with the `// SAFETY:` comment directly above it. The test
//! renders the document from the sources; on drift it fails and prints the
//! regenerated file, which is then committed in place of the stale one.

use std::fs;
use std::path::{Path, PathBuf};

const HEADER: &str = "# Unsafe inventory\n\n\
Every `unsafe` site under `crates/*/src` with its `SAFETY:`
justification. **Generated** by `tests/unsafe_inventory.rs`: edit the
`SAFETY:` comments in the source, run `cargo test --test unsafe_inventory`
and commit the document it prints.\n\n";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The inventory row for `lines[i]`, when its code uses the `unsafe` keyword.
fn row(lines: &[&str], i: usize) -> Option<String> {
    let code = lines[i].split("//").next().unwrap_or("");
    let next = code.split_once("unsafe ")?.1.trim_start();
    let kinds = ["{", "fn", "impl", "trait", "extern"];
    let kind = kinds.into_iter().find(|k| next.starts_with(k))?;
    let kind = if kind == "{" { "block" } else { kind };
    let above = lines[..i].iter().rev().map(|l| l.trim());
    let comments = above.take_while(|l| l.starts_with("//"));
    let mut run: Vec<&str> = comments.map(|l| l.trim_start_matches('/')).collect();
    run.reverse();
    let safety = match run.join(" ").split_once("SAFETY:") {
        Some((_, t)) => t.split_whitespace().collect::<Vec<_>>().join(" "),
        None => "**MISSING**".into(),
    };
    Some(format!("| {} | `unsafe {kind}` | {safety} |\n", i + 1))
}

fn render(root: &Path) -> String {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    files.sort();
    let (mut sections, mut sites, mut n_files) = (String::new(), 0, 0);
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        let rows: Vec<String> = (0..lines.len()).filter_map(|i| row(&lines, i)).collect();
        if !rows.is_empty() {
            let rel = path.strip_prefix(root).unwrap().display();
            sections += &format!("\n## `{rel}`\n\n| Line | Kind | SAFETY justification |\n");
            sections += &format!("|---|---|---|\n{}", rows.concat());
            (sites, n_files) = (sites + rows.len(), n_files + 1);
        }
    }
    format!("{HEADER}{sites} unsafe sites across {n_files} files.\n{sections}")
}

#[test]
fn the_unsafe_inventory_matches_the_sources() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rendered = render(root);
    let on_disk = fs::read_to_string(root.join("UNSAFE_INVENTORY.md")).unwrap_or_default();
    if on_disk != rendered {
        panic!("UNSAFE_INVENTORY.md is stale; replace it with:\n\n{rendered}");
    }
}
