//! Fixture: C002 — raw threads outside the deterministic scheduler.

pub fn race() -> u32 {
    let h = std::thread::spawn(|| 3);
    h.join().unwrap_or(0)
}
