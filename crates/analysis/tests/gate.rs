//! The CI gate: `cargo test -p rlwe-analysis` fails when the workspace
//! has any analysis finding not in the committed baseline — or when the
//! baseline has gone stale (the code improved; ratchet it down).

use rlwe_analysis::findings::{diff_baseline, parse_baseline};

#[test]
fn workspace_findings_match_the_committed_baseline() {
    let analysis = rlwe_analysis::analyze_workspace();
    let baseline_path = rlwe_analysis::baseline_path();
    let baseline = parse_baseline(
        &std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            panic!(
                "committed baseline {} must exist: {e}",
                baseline_path.display()
            )
        }),
    );
    let diff = diff_baseline(&analysis.findings, &baseline);
    let mut msg = String::new();
    if !diff.new.is_empty() {
        msg.push_str(&format!(
            "\n{} new finding(s) not in analysis-baseline.txt:\n",
            diff.new.len()
        ));
        for f in &diff.new {
            msg.push_str(&format!("  {f}\n"));
        }
        msg.push_str(
            "fix them, or suppress with a reasoned // ct-allow(…) / // panic-allow(…) comment.\n",
        );
    }
    if !diff.stale.is_empty() {
        msg.push_str(&format!(
            "\n{} stale baseline entr(y/ies) — the findings no longer occur. Ratchet the\n\
             baseline down with `cargo run -p rlwe-analysis --bin analyze -- --write-baseline`\n\
             in the same change (never hand-edit entries):\n",
            diff.stale.len()
        ));
        for k in &diff.stale {
            msg.push_str(&format!("  {k}\n"));
        }
    }
    assert!(msg.is_empty(), "{msg}");
}

#[test]
fn coefficient_packing_is_linted_as_secret_handling() {
    // Key serialization packs secret coefficients, so the packer's and
    // parser's inputs are annotated secret and the lint checks their
    // loops directly. The gate above then keeps them branch-free.
    let ws = rlwe_analysis::load_workspace(&rlwe_analysis::workspace_root());
    for (name, param) in [("pack_coeffs_into", "coeffs"), ("unpack_coeffs", "bytes")] {
        let f = ws
            .fns
            .iter()
            .find(|f| {
                f.name == name && ws.files[f.file].rel_path.ends_with("core/src/serialize.rs")
            })
            .unwrap_or_else(|| panic!("{name} is defined in rlwe-core's serialize.rs"));
        assert!(
            f.params.iter().any(|p| p.name == param && p.secret),
            "{name}'s `{param}` must carry `// ct: secret`"
        );
    }
    // The bit-at-a-time packer the word-wise one replaced branches on
    // every coefficient bit, which the annotation exposes.
    let bitwise = "pub fn pack_coeffs(/* ct: secret */ coeffs: &[u32], bits: u32) -> Vec<u8> {\n\
                   let mut out = vec![0u8; 4];\n\
                   for &c in coeffs { for b in 0..bits { if (c >> b) & 1 == 1 { out[0] |= 1; } } }\n\
                   out }";
    let findings = rlwe_analysis::analyze(&rlwe_analysis::load_sources(vec![(
        "rlwe-core".into(),
        "crates/core/src/serialize.rs".into(),
        bitwise.into(),
    )]))
    .findings;
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rlwe_analysis::findings::Rule::CtBranch),
        "{findings:?}"
    );
}

#[test]
fn baseline_has_no_duplicate_or_malformed_entries() {
    let text =
        std::fs::read_to_string(rlwe_analysis::baseline_path()).expect("committed baseline exists");
    let mut seen = std::collections::HashSet::new();
    for line in text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert_eq!(
            line.split('\t').count(),
            4,
            "baseline entries are rule<TAB>file<TAB>function<TAB>detail: {line:?}"
        );
        assert!(seen.insert(line), "duplicate baseline entry: {line:?}");
    }
}
