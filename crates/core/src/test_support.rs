//! Helpers shared by the crate's unit tests.

use popcorn_dense::parallel::NUM_THREADS_ENV;

/// Rerun the test `name` of `module` (as `module_path!()` gives it) in child
/// processes at one and three kernel threads. The kernel thread count is
/// fixed per process, so a test that must hold at every count calls this
/// last; in the children, which pin the count, it does nothing.
pub(crate) fn rerun_at_kernel_threads(module: &str, name: &str) {
    if std::env::var_os(NUM_THREADS_ENV).is_some() {
        return;
    }
    let module = module.split_once("::").expect("crate path").1;
    let test = format!("{module}::{name}");
    for threads in ["1", "3"] {
        let exe = std::env::current_exe().unwrap();
        let out = std::process::Command::new(exe)
            .args([test.as_str(), "--exact"])
            .env(NUM_THREADS_ENV, threads)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{test} at {threads} kernel threads:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
