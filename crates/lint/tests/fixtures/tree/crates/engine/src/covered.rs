//! Fixture: `#[cfg(test)]` regions are exempt from the token rules.

pub fn live() -> u32 {
    41
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_code_may_compare_floats_exactly() {
        assert!(f64::from(super::live()) == 41.0);
        assert!(f64::from(super::live()).partial_cmp(&41.0).is_some());
    }
}
