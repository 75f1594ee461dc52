//! Reads this test executable's own machine code, for the gates that
//! check what LLVM emitted for the vector kernels (one `vprold` per
//! rotate, no `call` or stack traffic in a round loop, no branch in a
//! block loop).
//!
//! The helpers run binutils' `objdump -d` on the running test binary,
//! find a function's body by its demangled path, find the innermost
//! loop around a marker instruction, and count mnemonics. A missing
//! `objdump` fails the gate; it never skips it.

use std::sync::OnceLock;

/// One disassembled instruction: its address and its text, mnemonic
/// first (`vprold $0x10,%zmm1,%zmm1`).
pub(crate) type Insn = (u64, String);

/// `objdump -d -C --no-show-raw-insn` of this test executable, run once
/// per process.
fn objdump() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let exe = std::env::current_exe().expect("path of the test executable");
        let out = std::process::Command::new("objdump")
            .args(["-d", "-C", "--no-show-raw-insn"])
            .arg(&exe)
            .output()
            .unwrap_or_else(|e| {
                panic!("the machine-code gate needs binutils' `objdump` on PATH: {e}")
            });
        assert!(out.status.success(), "objdump -d {} failed", exe.display());
        String::from_utf8_lossy(&out.stdout).into_owned()
    })
}

/// The disassembly of the function whose demangled path ends in `path`
/// (e.g. `chacha_avx2::kernel::avx2`), one instruction per entry.
pub(crate) fn disassembly(path: &str) -> Vec<Insn> {
    let header = format!("{path}>:");
    let body: Vec<Insn> = objdump()
        .lines()
        .skip_while(|line| !line.ends_with(&header))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .filter_map(|line| {
            let (addr, insn) = line.split_once(":\t")?;
            Some((
                u64::from_str_radix(addr.trim(), 16).ok()?,
                insn.trim().to_string(),
            ))
        })
        .collect();
    assert!(!body.is_empty(), "no `{header}` in the test executable");
    body
}

/// The instructions of the innermost loop (the shortest span closed by
/// a backward jump) that contains a `marker` instruction.
pub(crate) fn innermost_loop<'a>(body: &'a [Insn], marker: &str) -> &'a [Insn] {
    body.iter()
        .enumerate()
        .filter(|(_, (_, insn))| insn.starts_with('j'))
        .filter_map(|(end, (addr, insn))| {
            let target = insn.split_whitespace().nth(1)?;
            let target = u64::from_str_radix(target, 16).ok()?;
            let start = body.iter().position(|(a, _)| *a == target)?;
            (target < *addr).then(|| &body[start..=end])
        })
        .filter(|span| span.iter().any(|(_, insn)| insn.starts_with(marker)))
        .min_by_key(|span| span.len())
        .unwrap_or_else(|| panic!("no loop around a `{marker}`"))
}

/// How many of `insns` have the mnemonic `mnemonic`.
pub(crate) fn count(insns: &[Insn], mnemonic: &str) -> usize {
    insns
        .iter()
        .filter(|(_, insn)| insn.split_whitespace().next() == Some(mnemonic))
        .count()
}

/// The conditional jumps among `insns`: every `j…` mnemonic but `jmp`.
pub(crate) fn conditional_jumps(insns: &[Insn]) -> Vec<&Insn> {
    insns
        .iter()
        .filter(|(_, insn)| insn.starts_with('j') && !insn.starts_with("jmp"))
        .collect()
}
