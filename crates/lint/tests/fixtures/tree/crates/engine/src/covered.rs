//! Fixture: `#[cfg(test)]` regions are exempt from the token rules.

pub fn live() -> u32 {
    41
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn test_only_code_may_lock_and_compare_floats() {
        let m = Mutex::new(super::live());
        assert!(f64::from(*m.lock().unwrap()) == 41.0);
    }
}
