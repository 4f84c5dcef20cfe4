//! Typed tunable parameters and their values.

use crate::error::SpaceError;

/// A concrete value assigned to a parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer value (e.g. number of workers).
    Int(i64),
    /// Floating-point value (e.g. a rate or fraction).
    Float(f64),
    /// Categorical choice by name (e.g. machine type).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl ParamValue {
    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Str(_) => "categorical",
            ParamValue::Bool(_) => "bool",
        }
    }

    /// Returns the integer payload if this is an [`ParamValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload if this is a [`ParamValue::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload if this is a [`ParamValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is a [`ParamValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

/// The domain of a tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// Integer range `[lo, hi]`, inclusive. With `log = true` the unit
    /// encoding is logarithmic (requires `lo >= 1`), appropriate for
    /// scale-like knobs such as batch size.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Whether the unit-interval encoding is logarithmic.
        log: bool,
    },
    /// Floating-point range `[lo, hi]`. With `log = true` the encoding is
    /// logarithmic (requires `lo > 0`).
    Float {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Whether the unit-interval encoding is logarithmic.
        log: bool,
    },
    /// One of a fixed set of named choices.
    Categorical {
        /// The available choices, in declaration order.
        choices: Vec<String>,
    },
    /// A boolean flag.
    Bool,
}

impl ParamKind {
    /// Number of distinct values, if finite.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            ParamKind::Int { lo, hi, .. } => Some((hi - lo) as u64 + 1),
            ParamKind::Float { lo, hi, .. } => {
                if lo == hi {
                    Some(1)
                } else {
                    None
                }
            }
            ParamKind::Categorical { choices } => Some(choices.len() as u64),
            ParamKind::Bool => Some(2),
        }
    }

    /// A short name for the kind, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamKind::Int { .. } => "int",
            ParamKind::Float { .. } => "float",
            ParamKind::Categorical { .. } => "categorical",
            ParamKind::Bool => "bool",
        }
    }
}

/// A named tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    name: String,
    kind: ParamKind,
}

impl Param {
    /// Creates a parameter, validating its domain.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::InvalidParam`] for empty names, inverted or
    /// non-finite bounds, log-scaled domains with non-positive lower
    /// bounds, or empty/duplicate categorical choices.
    pub fn new(name: impl Into<String>, kind: ParamKind) -> Result<Self, SpaceError> {
        let name = name.into();
        let invalid = |reason: String| SpaceError::InvalidParam {
            name: name.clone(),
            reason,
        };
        if name.is_empty() {
            return Err(SpaceError::InvalidParam {
                name,
                reason: "empty name".into(),
            });
        }
        match &kind {
            ParamKind::Int { lo, hi, log } => {
                if lo > hi {
                    return Err(invalid(format!("int bounds inverted: [{lo}, {hi}]")));
                }
                if *log && *lo < 1 {
                    return Err(invalid(format!(
                        "log-scaled int requires lo >= 1, got {lo}"
                    )));
                }
            }
            ParamKind::Float { lo, hi, log } => {
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(invalid(format!("non-finite float bounds [{lo}, {hi}]")));
                }
                if lo > hi {
                    return Err(invalid(format!("float bounds inverted: [{lo}, {hi}]")));
                }
                if *log && *lo <= 0.0 {
                    return Err(invalid(format!(
                        "log-scaled float requires lo > 0, got {lo}"
                    )));
                }
            }
            ParamKind::Categorical { choices } => {
                if choices.is_empty() {
                    return Err(invalid("categorical with no choices".into()));
                }
                let mut seen = std::collections::HashSet::new();
                for c in choices {
                    if !seen.insert(c) {
                        return Err(invalid(format!("duplicate choice `{c}`")));
                    }
                }
            }
            ParamKind::Bool => {}
        }
        Ok(Param { name, kind })
    }

    /// Convenience constructor for a linear integer range.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn int(name: impl Into<String>, lo: i64, hi: i64) -> Result<Self, SpaceError> {
        Param::new(name, ParamKind::Int { lo, hi, log: false })
    }

    /// Convenience constructor for a log-scaled integer range.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn log_int(name: impl Into<String>, lo: i64, hi: i64) -> Result<Self, SpaceError> {
        Param::new(name, ParamKind::Int { lo, hi, log: true })
    }

    /// Convenience constructor for a linear float range.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn float(name: impl Into<String>, lo: f64, hi: f64) -> Result<Self, SpaceError> {
        Param::new(name, ParamKind::Float { lo, hi, log: false })
    }

    /// Convenience constructor for a log-scaled float range.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn log_float(name: impl Into<String>, lo: f64, hi: f64) -> Result<Self, SpaceError> {
        Param::new(name, ParamKind::Float { lo, hi, log: true })
    }

    /// Convenience constructor for a categorical parameter.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn categorical<S: Into<String>>(
        name: impl Into<String>,
        choices: impl IntoIterator<Item = S>,
    ) -> Result<Self, SpaceError> {
        Param::new(
            name,
            ParamKind::Categorical {
                choices: choices.into_iter().map(Into::into).collect(),
            },
        )
    }

    /// Convenience constructor for a boolean parameter.
    ///
    /// # Errors
    ///
    /// See [`Param::new`].
    pub fn bool(name: impl Into<String>) -> Result<Self, SpaceError> {
        Param::new(name, ParamKind::Bool)
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's domain.
    pub fn kind(&self) -> &ParamKind {
        &self.kind
    }

    /// Checks whether `value` lies in this parameter's domain.
    pub fn contains(&self, value: &ParamValue) -> bool {
        match (&self.kind, value) {
            (ParamKind::Int { lo, hi, .. }, ParamValue::Int(v)) => lo <= v && v <= hi,
            (ParamKind::Float { lo, hi, .. }, ParamValue::Float(v)) => {
                v.is_finite() && *lo <= *v && *v <= *hi
            }
            (ParamKind::Categorical { choices }, ParamValue::Str(v)) => {
                choices.iter().any(|c| c == v)
            }
            (ParamKind::Bool, ParamValue::Bool(_)) => true,
            _ => false,
        }
    }

    /// Maps a unit-interval coordinate to a value in this domain.
    ///
    /// The mapping is surjective onto the domain and is the inverse of
    /// [`Param::to_unit`] up to rounding.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `u` is outside `[0, 1]` (release builds
    /// clamp).
    pub fn from_unit(&self, u: f64) -> ParamValue {
        debug_assert!((-1e-9..=1.0 + 1e-9).contains(&u), "unit coord {u}");
        let u = u.clamp(0.0, 1.0);
        match &self.kind {
            ParamKind::Int { lo, hi, log } => {
                if lo == hi {
                    return ParamValue::Int(*lo);
                }
                let v = if *log {
                    let (llo, lhi) = ((*lo as f64).ln(), (*hi as f64).ln());
                    (llo + u * (lhi - llo)).exp().round() as i64
                } else {
                    *lo + (u * ((*hi - *lo) as f64 + 1.0)).floor() as i64
                };
                ParamValue::Int(v.clamp(*lo, *hi))
            }
            ParamKind::Float { lo, hi, log } => {
                if lo == hi {
                    return ParamValue::Float(*lo);
                }
                let v = if *log {
                    let (llo, lhi) = (lo.ln(), hi.ln());
                    (llo + u * (lhi - llo)).exp()
                } else {
                    lo + u * (hi - lo)
                };
                ParamValue::Float(v.clamp(*lo, *hi))
            }
            ParamKind::Categorical { choices } => {
                let k = choices.len();
                let idx = ((u * k as f64).floor() as usize).min(k - 1);
                ParamValue::Str(choices[idx].clone())
            }
            ParamKind::Bool => ParamValue::Bool(u >= 0.5),
        }
    }

    /// Maps a domain value to its canonical unit-interval coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::TypeMismatch`] or [`SpaceError::OutOfDomain`]
    /// if the value does not belong to this parameter.
    pub fn to_unit(&self, value: &ParamValue) -> Result<f64, SpaceError> {
        if !self.contains(value) {
            return Err(match (&self.kind, value) {
                (k, v) if k.type_name() != v.type_name() => SpaceError::TypeMismatch {
                    name: self.name.clone(),
                    expected: k.type_name(),
                    found: v.type_name(),
                },
                _ => SpaceError::OutOfDomain {
                    name: self.name.clone(),
                    value: value.to_string(),
                },
            });
        }
        Ok(match (&self.kind, value) {
            (ParamKind::Int { lo, hi, log }, ParamValue::Int(v)) => {
                if lo == hi {
                    0.5
                } else if *log {
                    let (llo, lhi) = ((*lo as f64).ln(), (*hi as f64).ln());
                    ((*v as f64).ln() - llo) / (lhi - llo)
                } else {
                    // Centre of the value's bucket, so decode(encode(v)) == v.
                    ((*v - *lo) as f64 + 0.5) / ((*hi - *lo) as f64 + 1.0)
                }
            }
            (ParamKind::Float { lo, hi, log }, ParamValue::Float(v)) => {
                if lo == hi {
                    0.5
                } else if *log {
                    (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
                } else {
                    (v - lo) / (hi - lo)
                }
            }
            (ParamKind::Categorical { choices }, ParamValue::Str(v)) => {
                let idx = choices
                    .iter()
                    .position(|c| c == v)
                    .expect("contains() checked membership");
                (idx as f64 + 0.5) / choices.len() as f64
            }
            (ParamKind::Bool, ParamValue::Bool(v)) => {
                if *v {
                    0.75
                } else {
                    0.25
                }
            }
            _ => unreachable!("contains() checked the type"),
        })
    }

    /// Parses a string into a value of this parameter's type and checks
    /// it against the domain (the inverse of `ParamValue`'s `Display`).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::OutOfDomain`] when the text does not parse
    /// as the parameter's type or the parsed value is outside the domain.
    pub fn parse_value(&self, text: &str) -> Result<ParamValue, SpaceError> {
        let out_of_domain = || SpaceError::OutOfDomain {
            name: self.name.clone(),
            value: text.to_owned(),
        };
        let value = match &self.kind {
            ParamKind::Int { .. } => ParamValue::Int(text.parse().map_err(|_| out_of_domain())?),
            ParamKind::Float { .. } => {
                ParamValue::Float(text.parse().map_err(|_| out_of_domain())?)
            }
            ParamKind::Categorical { .. } => ParamValue::Str(text.to_owned()),
            ParamKind::Bool => ParamValue::Bool(text.parse().map_err(|_| out_of_domain())?),
        };
        if !self.contains(&value) {
            return Err(out_of_domain());
        }
        Ok(value)
    }

    /// Enumerates every value in a finite domain; for a continuous float
    /// range, returns `levels` evenly spaced values instead.
    pub fn enumerate(&self, levels: usize) -> Vec<ParamValue> {
        match &self.kind {
            ParamKind::Int { lo, hi, .. } => {
                let count = (*hi - *lo) as usize + 1;
                if count <= levels.max(2) {
                    (*lo..=*hi).map(ParamValue::Int).collect()
                } else {
                    // Sample `levels` distinct values across the range
                    // through the unit encoding (respects log scaling).
                    let mut vals: Vec<i64> = (0..levels)
                        .map(|i| {
                            let u = (i as f64 + 0.5) / levels as f64;
                            self.from_unit(u).as_int().expect("int kind")
                        })
                        .collect();
                    vals.dedup();
                    vals.into_iter().map(ParamValue::Int).collect()
                }
            }
            ParamKind::Float { lo, hi, .. } => {
                if lo == hi {
                    vec![ParamValue::Float(*lo)]
                } else {
                    (0..levels.max(2))
                        .map(|i| {
                            let u = (i as f64 + 0.5) / levels.max(2) as f64;
                            self.from_unit(u)
                        })
                        .collect()
                }
            }
            ParamKind::Categorical { choices } => {
                choices.iter().cloned().map(ParamValue::Str).collect()
            }
            ParamKind::Bool => vec![ParamValue::Bool(false), ParamValue::Bool(true)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_all_values() {
        let p = Param::int("workers", 2, 17).unwrap();
        for v in 2..=17 {
            let u = p.to_unit(&ParamValue::Int(v)).unwrap();
            assert_eq!(p.from_unit(u), ParamValue::Int(v), "v={v}");
        }
    }

    #[test]
    fn log_int_roundtrip() {
        let p = Param::log_int("batch", 8, 4096).unwrap();
        for v in [8i64, 16, 64, 512, 4096] {
            let u = p.to_unit(&ParamValue::Int(v)).unwrap();
            assert_eq!(p.from_unit(u), ParamValue::Int(v), "v={v}");
        }
    }

    #[test]
    fn log_int_encoding_is_nonlinear() {
        let p = Param::log_int("batch", 1, 1024).unwrap();
        let u32_ = p.to_unit(&ParamValue::Int(32)).unwrap();
        // 32 = 2^5 of 2^10 → exactly half way in log space.
        assert!((u32_ - 0.5).abs() < 1e-12);
    }

    #[test]
    fn float_roundtrip() {
        let p = Param::float("rate", 0.0, 10.0).unwrap();
        let u = p.to_unit(&ParamValue::Float(2.5)).unwrap();
        assert!((u - 0.25).abs() < 1e-12);
        assert_eq!(p.from_unit(u), ParamValue::Float(2.5));
    }

    #[test]
    fn log_float_midpoint() {
        let p = Param::log_float("lr", 1e-4, 1e-1).unwrap();
        let v = p.from_unit(0.5).as_float().unwrap();
        // Geometric midpoint: sqrt(1e-4 * 1e-1) ≈ 3.16e-3.
        assert!((v - 3.162e-3).abs() < 1e-4, "v = {v}");
    }

    #[test]
    fn categorical_roundtrip_and_buckets() {
        let p = Param::categorical("arch", ["ps", "allreduce"]).unwrap();
        assert_eq!(p.from_unit(0.0), ParamValue::Str("ps".into()));
        assert_eq!(p.from_unit(0.49), ParamValue::Str("ps".into()));
        assert_eq!(p.from_unit(0.51), ParamValue::Str("allreduce".into()));
        assert_eq!(p.from_unit(1.0), ParamValue::Str("allreduce".into()));
        let u = p.to_unit(&ParamValue::Str("allreduce".into())).unwrap();
        assert_eq!(p.from_unit(u), ParamValue::Str("allreduce".into()));
    }

    #[test]
    fn bool_roundtrip() {
        let p = Param::bool("pipelining").unwrap();
        for v in [true, false] {
            let u = p.to_unit(&ParamValue::Bool(v)).unwrap();
            assert_eq!(p.from_unit(u), ParamValue::Bool(v));
        }
    }

    #[test]
    fn degenerate_ranges() {
        let p = Param::int("n", 5, 5).unwrap();
        assert_eq!(p.from_unit(0.9), ParamValue::Int(5));
        assert_eq!(p.to_unit(&ParamValue::Int(5)).unwrap(), 0.5);
        let p = Param::float("x", 1.0, 1.0).unwrap();
        assert_eq!(p.from_unit(0.1), ParamValue::Float(1.0));
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(Param::int("a", 5, 2).is_err());
        assert!(Param::log_int("a", 0, 10).is_err());
        assert!(Param::float("a", f64::NAN, 1.0).is_err());
        assert!(Param::log_float("a", 0.0, 1.0).is_err());
        assert!(Param::categorical("a", Vec::<String>::new()).is_err());
        assert!(Param::categorical("a", ["x", "x"]).is_err());
        assert!(Param::new("", ParamKind::Bool).is_err());
    }

    #[test]
    fn contains_checks_domain_and_type() {
        let p = Param::int("n", 0, 10).unwrap();
        assert!(p.contains(&ParamValue::Int(10)));
        assert!(!p.contains(&ParamValue::Int(11)));
        assert!(!p.contains(&ParamValue::Float(5.0)));
        let p = Param::float("x", 0.0, 1.0).unwrap();
        assert!(!p.contains(&ParamValue::Float(f64::NAN)));
    }

    #[test]
    fn to_unit_error_kinds() {
        let p = Param::int("n", 0, 10).unwrap();
        assert!(matches!(
            p.to_unit(&ParamValue::Bool(true)),
            Err(SpaceError::TypeMismatch { .. })
        ));
        assert!(matches!(
            p.to_unit(&ParamValue::Int(99)),
            Err(SpaceError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn enumerate_small_int_is_exhaustive() {
        let p = Param::int("n", 3, 6).unwrap();
        let vals = p.enumerate(10);
        assert_eq!(
            vals,
            vec![
                ParamValue::Int(3),
                ParamValue::Int(4),
                ParamValue::Int(5),
                ParamValue::Int(6)
            ]
        );
    }

    #[test]
    fn enumerate_large_int_subsamples() {
        let p = Param::int("n", 0, 1000).unwrap();
        let vals = p.enumerate(5);
        assert!(vals.len() <= 5);
        assert!(vals.windows(2).all(|w| w[0].as_int() < w[1].as_int()));
    }

    #[test]
    fn enumerate_float_has_levels() {
        let p = Param::float("x", 0.0, 1.0).unwrap();
        assert_eq!(p.enumerate(4).len(), 4);
    }

    #[test]
    fn cardinality() {
        assert_eq!(
            Param::int("n", 1, 10).unwrap().kind().cardinality(),
            Some(10)
        );
        assert_eq!(
            Param::float("x", 0.0, 1.0).unwrap().kind().cardinality(),
            None
        );
        assert_eq!(Param::bool("b").unwrap().kind().cardinality(), Some(2));
    }

    #[test]
    fn parse_value_roundtrips_display() {
        let cases: Vec<(Param, ParamValue)> = vec![
            (Param::int("n", 0, 100).unwrap(), ParamValue::Int(42)),
            (
                Param::float("x", 0.0, 1.0).unwrap(),
                ParamValue::Float(0.25),
            ),
            (
                Param::categorical("c", ["a", "b"]).unwrap(),
                ParamValue::Str("b".into()),
            ),
            (Param::bool("f").unwrap(), ParamValue::Bool(true)),
        ];
        for (p, v) in cases {
            let text = v.to_string();
            assert_eq!(p.parse_value(&text).unwrap(), v, "{}", p.name());
        }
    }

    #[test]
    fn parse_value_rejects_garbage_and_out_of_domain() {
        let p = Param::int("n", 0, 10).unwrap();
        assert!(p.parse_value("abc").is_err());
        assert!(p.parse_value("99").is_err());
        let c = Param::categorical("c", ["a"]).unwrap();
        assert!(c.parse_value("zzz").is_err());
        let b = Param::bool("f").unwrap();
        assert!(b.parse_value("yes").is_err());
    }

    #[test]
    fn param_value_conversions() {
        assert_eq!(ParamValue::from(3i64), ParamValue::Int(3));
        assert_eq!(ParamValue::from(true).as_bool(), Some(true));
        assert_eq!(ParamValue::from("x").as_str(), Some("x"));
        assert_eq!(ParamValue::from(1.5).as_float(), Some(1.5));
        assert_eq!(ParamValue::Int(3).as_float(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn int_decode_encode_decode_is_identity(
            lo in -50i64..50, span in 0i64..100, u in 0.0f64..=1.0
        ) {
            let p = Param::int("n", lo, lo + span).unwrap();
            let v = p.from_unit(u);
            let u2 = p.to_unit(&v).unwrap();
            prop_assert_eq!(p.from_unit(u2), v);
        }

        #[test]
        fn log_int_decode_encode_decode_is_identity(
            lo in 1i64..100, span in 0i64..10_000, u in 0.0f64..=1.0
        ) {
            let p = Param::log_int("n", lo, lo + span).unwrap();
            let v = p.from_unit(u);
            let u2 = p.to_unit(&v).unwrap();
            prop_assert_eq!(p.from_unit(u2), v);
        }

        #[test]
        fn float_roundtrip_within_tolerance(
            lo in -100.0f64..100.0, span in 0.001f64..100.0, u in 0.0f64..=1.0
        ) {
            let p = Param::float("x", lo, lo + span).unwrap();
            let v = p.from_unit(u).as_float().unwrap();
            let u2 = p.to_unit(&ParamValue::Float(v)).unwrap();
            prop_assert!((u - u2).abs() < 1e-9);
        }

        #[test]
        fn from_unit_always_in_domain(u in 0.0f64..=1.0, lo in 1i64..20, span in 0i64..50) {
            let p = Param::log_int("n", lo, lo + span).unwrap();
            prop_assert!(p.contains(&p.from_unit(u)));
            let q = Param::int("m", -5, 5).unwrap();
            prop_assert!(q.contains(&q.from_unit(u)));
        }
    }
}
