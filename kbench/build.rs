//! Records the compiler that built the benchmark, for the run-context
//! header.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let out = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let field = |key: &str| {
        out.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or("unknown")
            .trim()
            .to_string()
    };
    println!("cargo:rustc-env=KBENCH_RUSTC_RELEASE={}", field("release:"));
    println!(
        "cargo:rustc-env=KBENCH_RUSTC_COMMIT={}",
        field("commit-hash:")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
