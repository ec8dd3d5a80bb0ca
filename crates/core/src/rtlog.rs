//! Runtime diagnostics sink.
//!
//! The engine emits rare, non-fatal warnings (a configuration switch or
//! repartition rolled back on quiesce timeout, a stuck-transaction
//! suspicion). By default they go to stderr; benchmarks and embedders that
//! must keep their output machine-readable can silence them
//! ([`set_quiet`]) or route them into their own logging stack
//! ([`set_handler`]). The hook is process-global (the conditions it
//! reports are process-level events) and costs one `RwLock` read *only on
//! the warning path* — never on transaction fast paths.

use std::sync::RwLock;

/// A warning sink installed by the embedder.
pub type Handler = Box<dyn Fn(&str) + Send + Sync>;

enum Sink {
    /// Default: `eprintln!` prefixed with `partstm:`.
    Stderr,
    /// Drop warnings entirely.
    Quiet,
    /// Forward to the installed handler.
    Custom(Handler),
}

static SINK: RwLock<Sink> = RwLock::new(Sink::Stderr);

/// Silences (or restores) the default stderr warning output.
///
/// `set_quiet(true)` drops engine warnings; `set_quiet(false)` restores
/// the stderr default. Either call replaces a custom handler.
pub fn set_quiet(quiet: bool) {
    *SINK.write().unwrap_or_else(|e| e.into_inner()) =
        if quiet { Sink::Quiet } else { Sink::Stderr };
}

/// Installs a custom warning handler (`None` restores the stderr default).
///
/// The handler receives fully formatted single-line messages and must not
/// call back into the STM (it may run while a partition switch holds the
/// switching flag).
pub fn set_handler(handler: Option<Handler>) {
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = match handler {
        Some(h) => Sink::Custom(h),
        None => Sink::Stderr,
    };
}

/// Emits one warning through the installed sink.
///
/// Public so sibling runtime crates (migration directories, the
/// repartition controller) report through the embedder's sink instead of
/// growing their own logging channel; it is not a general-purpose logging
/// API for applications.
pub fn warn(msg: &str) {
    match &*SINK.read().unwrap_or_else(|e| e.into_inner()) {
        Sink::Stderr => eprintln!("partstm: {msg}"),
        Sink::Quiet => {}
        Sink::Custom(h) => h(msg),
    }
}

/// Per-site rate limiter for warnings that can recur every controller
/// window (e.g. the migration directories' unmapped-bucket reports during
/// an aliasing storm): at most one emission per `min_interval`; calls
/// arriving inside the window are *counted*, and the count is appended to
/// the next message that does go out, so nothing is silently lost.
///
/// Lock-free (two relaxed atomics); safe to call from any thread.
#[derive(Debug)]
pub struct Limiter {
    min_interval: std::time::Duration,
    /// [`now_micros`](crate::telemetry::now_micros) of the last emission,
    /// plus 1 so 0 means "never emitted".
    last: std::sync::atomic::AtomicU64,
    suppressed: std::sync::atomic::AtomicU64,
}

impl Limiter {
    /// A limiter emitting at most one warning per `min_interval`.
    pub const fn new(min_interval: std::time::Duration) -> Self {
        Limiter {
            min_interval,
            last: std::sync::atomic::AtomicU64::new(0),
            suppressed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Emits `msg` through [`warn`] unless a message went out within the
    /// last `min_interval`, in which case the call is counted and folded
    /// into the next emission as `(… N similar suppressed)`.
    pub fn warn(&self, msg: &str) {
        use std::sync::atomic::Ordering;
        let now = crate::telemetry::now_micros() + 1;
        let last = self.last.load(Ordering::Relaxed);
        let window = self.min_interval.as_micros() as u64;
        if (last != 0 && now.saturating_sub(last) < window)
            || self
                .last
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            // Inside the window, or another thread won the emission race.
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let folded = self.suppressed.swap(0, Ordering::Relaxed);
        if folded > 0 {
            warn(&format!("{msg} ({folded} similar suppressed)"));
        } else {
            warn(msg);
        }
    }

    /// Calls currently counted but not yet folded into an emission.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Drop for Limiter {
    /// Flushes a pending suppressed count on teardown: warnings counted
    /// inside the final rate window would otherwise vanish with the
    /// limiter (most limiters are `static`, but scoped ones — e.g. owned
    /// by a controller or a test — die before their window elapses).
    fn drop(&mut self) {
        let pending = self
            .suppressed
            .swap(0, std::sync::atomic::Ordering::Relaxed);
        if pending > 0 {
            warn(&format!(
                "{pending} rate-limited warning(s) suppressed and never re-emitted \
                 (limiter dropped before its {:?} window elapsed)",
                self.min_interval
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The sink is process-global: each test that installs a handler holds
    /// this for its whole body, so a concurrently running one cannot swap
    /// the handler out from under it (the limiter test sleeps 250 ms with
    /// its handler installed).
    fn own_sink() -> MutexGuard<'static, ()> {
        static SINK_OWNER: Mutex<()> = Mutex::new(());
        SINK_OWNER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn handler_receives_warnings_and_quiet_drops_them() {
        let _sink = own_sink();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_handler(Some(Box::new(move |m| {
            assert!(m.contains("probe"));
            h.fetch_add(1, Ordering::Relaxed);
        })));
        warn("probe one");
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        set_quiet(true);
        warn("probe two");
        assert_eq!(hits.load(Ordering::Relaxed), 1, "quiet sink must drop");
        // Restore the default for other tests in the process.
        set_handler(None);
    }

    #[test]
    fn limiter_folds_suppressed_calls_into_the_next_emission() {
        let _sink = own_sink();
        let msgs: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&msgs);
        let me = std::thread::current().id();
        set_handler(Some(Box::new(move |m| {
            // Count only our own thread's messages: other tests share the
            // process-global sink.
            if std::thread::current().id() == me && m.contains("limited-probe") {
                sink.lock().unwrap().push(m.to_string());
            }
        })));

        let lim = Limiter::new(std::time::Duration::from_millis(200));
        lim.warn("limited-probe one");
        assert_eq!(msgs.lock().unwrap().len(), 1, "first call goes out");
        lim.warn("limited-probe two");
        lim.warn("limited-probe three");
        assert_eq!(msgs.lock().unwrap().len(), 1, "in-window calls dropped");
        assert_eq!(lim.suppressed(), 2);
        std::thread::sleep(std::time::Duration::from_millis(250));
        lim.warn("limited-probe four");
        let got = msgs.lock().unwrap().clone();
        assert_eq!(got.len(), 2, "window elapsed, emission resumes");
        assert!(
            got[1].contains("(2 similar suppressed)"),
            "suppressed count folded in: {}",
            got[1]
        );
        assert_eq!(lim.suppressed(), 0);
        set_handler(None);
    }

    #[test]
    fn limiter_drop_flushes_pending_suppressed_count() {
        let _sink = own_sink();
        let msgs: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&msgs);
        let me = std::thread::current().id();
        set_handler(Some(Box::new(move |m| {
            if std::thread::current().id() == me && m.contains("suppressed") {
                sink.lock().unwrap().push(m.to_string());
            }
        })));
        {
            let lim = Limiter::new(std::time::Duration::from_secs(3600));
            lim.warn("drop-probe one"); // goes out, opens the window
            lim.warn("drop-probe two"); // counted
            lim.warn("drop-probe three"); // counted
        } // dropped with 2 pending
        let got = msgs.lock().unwrap().clone();
        assert!(
            got.iter().any(|m| m.contains("2 rate-limited warning(s)")),
            "drop flushed the pending count: {got:?}"
        );
        // An idle limiter drops silently.
        let before = msgs.lock().unwrap().len();
        drop(Limiter::new(std::time::Duration::from_secs(3600)));
        assert_eq!(msgs.lock().unwrap().len(), before);
        set_handler(None);
    }
}
