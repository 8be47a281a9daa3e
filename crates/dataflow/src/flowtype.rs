//! The *flow type* stereotype: the data type carried by a DPort, with the
//! paper's structural **subset** compatibility rule.
//!
//! The paper replaces UML-RT protocols with flow types on data ports: "To
//! connect two DPorts, the output DPort's flow type must be a subset of the
//! input DPort's flow type." Here a flow type is a scalar with a physical
//! unit, a fixed-length vector, or a named record of flow types; subset
//! compatibility is structural.

use std::fmt;

/// A physical unit attached to scalar lanes.
///
/// `Any` acts as a wildcard on the *input* side: an input port typed `Any`
/// accepts any unit (every unit is a subset of `Any`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Unit {
    /// Accepts any unit (input-side wildcard).
    Any,
    /// Pure number.
    #[default]
    Dimensionless,
    /// Seconds.
    Second,
    /// Metres.
    Meter,
    /// Metres per second.
    MeterPerSecond,
    /// Metres per second squared.
    MeterPerSecondSquared,
    /// Radians.
    Radian,
    /// Radians per second.
    RadianPerSecond,
    /// Kelvin.
    Kelvin,
    /// Newtons.
    Newton,
    /// Volts.
    Volt,
    /// Amperes.
    Ampere,
    /// Watts.
    Watt,
    /// Pascals.
    Pascal,
    /// A domain-specific unit by name.
    Custom(String),
}

impl Unit {
    /// Whether a lane of unit `self` may flow into a lane of unit `other`.
    pub fn is_subset_of(&self, other: &Unit) -> bool {
        other == &Unit::Any || self == other
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Unit::Any => "any",
            Unit::Dimensionless => "1",
            Unit::Second => "s",
            Unit::Meter => "m",
            Unit::MeterPerSecond => "m/s",
            Unit::MeterPerSecondSquared => "m/s^2",
            Unit::Radian => "rad",
            Unit::RadianPerSecond => "rad/s",
            Unit::Kelvin => "K",
            Unit::Newton => "N",
            Unit::Volt => "V",
            Unit::Ampere => "A",
            Unit::Watt => "W",
            Unit::Pascal => "Pa",
            Unit::Custom(name) => name,
        };
        f.write_str(s)
    }
}

/// The type of data carried by a DPort.
///
/// # Examples
///
/// ```
/// use urt_dataflow::flowtype::{FlowType, Unit};
///
/// let out = FlowType::record([("pos", FlowType::with_unit(Unit::Meter))]);
/// let input = FlowType::record([
///     ("pos", FlowType::with_unit(Unit::Meter)),
///     ("vel", FlowType::with_unit(Unit::MeterPerSecond)),
/// ]);
/// // Output carries fewer fields than the input accepts: subset holds.
/// assert!(out.is_subset_of(&input));
/// assert!(!input.is_subset_of(&out));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FlowType {
    /// A single scalar lane with a unit.
    Scalar(Unit),
    /// A fixed-length vector of scalar lanes sharing one unit.
    Vector {
        /// Number of lanes.
        len: usize,
        /// Unit shared by all lanes.
        unit: Unit,
    },
    /// A named record of flow types (field order is not significant for
    /// compatibility, but determines lane order).
    Record(Vec<(String, FlowType)>),
}

impl FlowType {
    /// A dimensionless scalar.
    pub fn scalar() -> Self {
        FlowType::Scalar(Unit::Dimensionless)
    }

    /// A scalar with an explicit unit.
    pub fn with_unit(unit: Unit) -> Self {
        FlowType::Scalar(unit)
    }

    /// A dimensionless vector of `len` lanes.
    pub fn vector(len: usize) -> Self {
        FlowType::Vector { len, unit: Unit::Dimensionless }
    }

    /// A record from `(name, type)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a field name repeats — the subset relation is only a
    /// partial order on well-formed records.
    pub fn record<I, N>(fields: I) -> Self
    where
        I: IntoIterator<Item = (N, FlowType)>,
        N: Into<String>,
    {
        let fields: Vec<(String, FlowType)> =
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect();
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "record field names must be unique");
        FlowType::Record(fields)
    }

    /// Whether the type is well formed: record field names are unique at
    /// every level. The subset relation is only meaningful on well-formed
    /// types.
    pub fn is_well_formed(&self) -> bool {
        match self {
            FlowType::Scalar(_) | FlowType::Vector { .. } => true,
            FlowType::Record(fields) => {
                let mut names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
                    && fields.iter().all(|(_, t)| t.is_well_formed())
            }
        }
    }

    /// Number of scalar lanes this type occupies on the wire.
    pub fn width(&self) -> usize {
        match self {
            FlowType::Scalar(_) => 1,
            FlowType::Vector { len, .. } => *len,
            FlowType::Record(fields) => fields.iter().map(|(_, t)| t.width()).sum(),
        }
    }

    /// Looks up a record field by name.
    pub fn field(&self, name: &str) -> Option<&FlowType> {
        match self {
            FlowType::Record(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, t)| t),
            _ => None,
        }
    }

    /// Explains why `self` (the output side) is *not* a subset of `other`
    /// (the input side), naming the first offending field or lane.
    ///
    /// Returns `None` when the subset rule holds. The explanation names
    /// the record field path that breaks the subset, so diagnostics can
    /// point at `field \`vel\`` instead of reprinting both whole types.
    pub fn subset_failure(&self, other: &FlowType) -> Option<String> {
        match (self, other) {
            (FlowType::Scalar(a), FlowType::Scalar(b)) => {
                (!a.is_subset_of(b)).then(|| format!("unit `{a}` does not match input unit `{b}`"))
            }
            (FlowType::Vector { len: la, unit: ua }, FlowType::Vector { len: lb, unit: ub }) => {
                if la != lb {
                    Some(format!("vector length {la} does not match input length {lb}"))
                } else {
                    (!ua.is_subset_of(ub))
                        .then(|| format!("unit `{ua}` does not match input unit `{ub}`"))
                }
            }
            (FlowType::Record(a), FlowType::Record(b)) => {
                if !self.is_well_formed() {
                    return Some("output record has duplicate field names (ill-formed)".into());
                }
                if !other.is_well_formed() {
                    return Some("input record has duplicate field names (ill-formed)".into());
                }
                for (name, ta) in a {
                    let Some((_, tb)) = b.iter().find(|(nb, _)| nb == name) else {
                        return Some(format!(
                            "output field `{name}` does not exist on the input side"
                        ));
                    };
                    if let Some(why) = ta.subset_failure(tb) {
                        return Some(format!("field `{name}`: {why}"));
                    }
                }
                None
            }
            _ => Some(format!("structure mismatch: {self} cannot flow into {other}")),
        }
    }

    /// The paper's DPort connection rule: `self` (the output side) must be
    /// a subset of `other` (the input side).
    ///
    /// * scalars: units must match (or the input is `Any`);
    /// * vectors: equal length, unit subset;
    /// * records: every output field must exist on the input side with a
    ///   subset type (width subtyping); ill-formed records (duplicate
    ///   field names) are never a subset of anything, including
    ///   themselves, so malformed types cannot connect;
    /// * a scalar is a subset of a single-field record's field? No —
    ///   structure must match at the top level.
    pub fn is_subset_of(&self, other: &FlowType) -> bool {
        self.subset_failure(other).is_none()
    }

    /// Counts the typed annotations (unit + field names) this type carries;
    /// the Kühl-baseline information-loss metric counts these when a
    /// translation erases them.
    pub fn annotation_count(&self) -> usize {
        match self {
            FlowType::Scalar(u) => usize::from(*u != Unit::Dimensionless),
            FlowType::Vector { unit, .. } => usize::from(*unit != Unit::Dimensionless),
            FlowType::Record(fields) => {
                fields.len() + fields.iter().map(|(_, t)| t.annotation_count()).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for FlowType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowType::Scalar(u) => write!(f, "real[{u}]"),
            FlowType::Vector { len, unit } => write!(f, "vec{len}[{unit}]"),
            FlowType::Record(fields) => {
                write!(f, "{{")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_ode::rng::Pcg32;

    #[test]
    fn widths() {
        assert_eq!(FlowType::scalar().width(), 1);
        assert_eq!(FlowType::vector(3).width(), 3);
        let r = FlowType::record([("a", FlowType::scalar()), ("b", FlowType::vector(2))]);
        assert_eq!(r.width(), 3);
    }

    #[test]
    fn scalar_subset_requires_unit_match() {
        let m = FlowType::with_unit(Unit::Meter);
        let k = FlowType::with_unit(Unit::Kelvin);
        let any = FlowType::with_unit(Unit::Any);
        assert!(m.is_subset_of(&m));
        assert!(!m.is_subset_of(&k));
        assert!(m.is_subset_of(&any));
        assert!(!any.is_subset_of(&m), "wildcard only widens the input side");
    }

    #[test]
    fn vector_subset_requires_equal_length() {
        assert!(FlowType::vector(2).is_subset_of(&FlowType::vector(2)));
        assert!(!FlowType::vector(2).is_subset_of(&FlowType::vector(3)));
    }

    #[test]
    fn record_width_subtyping() {
        let narrow = FlowType::record([("x", FlowType::scalar())]);
        let wide = FlowType::record([("x", FlowType::scalar()), ("y", FlowType::scalar())]);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        // Field types must themselves be subsets.
        let wrong = FlowType::record([("x", FlowType::with_unit(Unit::Meter))]);
        assert!(!wrong.is_subset_of(&narrow));
        assert!(wrong.is_subset_of(&FlowType::record([("x", FlowType::with_unit(Unit::Any))])));
    }

    #[test]
    fn structural_mismatch_is_never_subset() {
        assert!(!FlowType::scalar().is_subset_of(&FlowType::vector(1)));
        assert!(!FlowType::vector(1).is_subset_of(&FlowType::scalar()));
        assert!(!FlowType::scalar().is_subset_of(&FlowType::record([("x", FlowType::scalar())])));
    }

    #[test]
    fn field_lookup() {
        let r = FlowType::record([("a", FlowType::scalar())]);
        assert!(r.field("a").is_some());
        assert!(r.field("b").is_none());
        assert!(FlowType::scalar().field("a").is_none());
    }

    #[test]
    fn annotation_counting() {
        assert_eq!(FlowType::scalar().annotation_count(), 0);
        assert_eq!(FlowType::with_unit(Unit::Meter).annotation_count(), 1);
        let r = FlowType::record([
            ("pos", FlowType::with_unit(Unit::Meter)),
            ("gain", FlowType::scalar()),
        ]);
        // 2 field names + 1 unit.
        assert_eq!(r.annotation_count(), 3);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn record_rejects_duplicate_fields() {
        let _ = FlowType::record([("x", FlowType::scalar()), ("x", FlowType::vector(2))]);
    }

    #[test]
    fn ill_formed_records_never_connect() {
        // Duplicate field names defeat the name-based field lookup, so the
        // subset rule rejects them outright rather than answering based on
        // whichever duplicate is found first (it even breaks reflexivity).
        let dup = FlowType::Record(vec![
            ("b".to_owned(), FlowType::vector(1)),
            ("b".to_owned(), FlowType::scalar()),
        ]);
        assert!(!dup.is_subset_of(&dup));
        let ok = FlowType::record([("b", FlowType::vector(1))]);
        assert!(!dup.is_subset_of(&ok));
        assert!(!ok.is_subset_of(&dup));
    }

    #[test]
    fn well_formedness() {
        assert!(FlowType::scalar().is_well_formed());
        assert!(FlowType::record([("a", FlowType::scalar())]).is_well_formed());
        let dup = FlowType::Record(vec![
            ("x".to_owned(), FlowType::scalar()),
            ("x".to_owned(), FlowType::scalar()),
        ]);
        assert!(!dup.is_well_formed());
        let nested_dup = FlowType::Record(vec![("outer".to_owned(), dup)]);
        assert!(!nested_dup.is_well_formed());
    }

    #[test]
    fn subset_failure_explains_field_level_breaks() {
        let out = FlowType::record([
            ("pos", FlowType::with_unit(Unit::Meter)),
            ("vel", FlowType::with_unit(Unit::MeterPerSecond)),
        ]);
        let input = FlowType::record([
            ("pos", FlowType::with_unit(Unit::Meter)),
            ("vel", FlowType::with_unit(Unit::Kelvin)),
        ]);
        let why = out.subset_failure(&input).unwrap();
        assert!(why.contains("field `vel`"), "names the offending field: {why}");
        assert!(why.contains("m/s"), "shows the output unit: {why}");

        let narrow = FlowType::record([("x", FlowType::scalar())]);
        let why = input.subset_failure(&narrow).unwrap();
        assert!(why.contains("`pos`") && why.contains("does not exist"), "{why}");

        let nested = FlowType::record([("inner", out.clone())]);
        let nested_in = FlowType::record([("inner", input.clone())]);
        let why = nested.subset_failure(&nested_in).unwrap();
        assert!(why.contains("field `inner`: field `vel`"), "nested path: {why}");
    }

    /// A random flow type over a small pool of units and field names, so
    /// subset relations between independent draws are common; records
    /// may repeat a field name (ill-formed) at any level.
    fn random_type(rng: &mut Pcg32, depth: usize) -> FlowType {
        const UNITS: [Unit; 3] = [Unit::Any, Unit::Meter, Unit::Kelvin];
        let unit = |rng: &mut Pcg32| UNITS[rng.gen_range_usize(0, UNITS.len())].clone();
        match rng.gen_range_usize(0, if depth == 0 { 2 } else { 3 }) {
            0 => FlowType::Scalar(unit(rng)),
            1 => FlowType::Vector { len: rng.gen_range_usize(1, 3), unit: unit(rng) },
            _ => FlowType::Record(
                (0..rng.gen_range_usize(0, 3))
                    .map(|_| {
                        let name = ["a", "b"][rng.gen_range_usize(0, 2)];
                        (name.to_owned(), random_type(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn the_subset_rule_is_one_rule_and_transitive() {
        let mut rng = Pcg32::seed_from_u64(0x5B5E7);
        let (mut chains, mut ill_formed) = (0, 0);
        for _ in 0..20_000 {
            let [a, b, c] = [0; 3].map(|_| random_type(&mut rng, 2));
            ill_formed += usize::from(!a.is_well_formed());
            for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
                assert_eq!(x.is_subset_of(y), x.subset_failure(y).is_none(), "{x} vs {y}");
            }
            if a.is_subset_of(&b) && b.is_subset_of(&c) {
                chains += 1;
                assert!(a.is_subset_of(&c), "{a} <= {b} <= {c}, but not {a} <= {c}");
            }
        }
        // The draws exercise the premise and the ill-formed records.
        assert!(chains >= 200 && ill_formed >= 200, "chains {chains}, ill-formed {ill_formed}");
    }

    #[test]
    fn display_forms() {
        assert_eq!(FlowType::scalar().to_string(), "real[1]");
        assert_eq!(FlowType::with_unit(Unit::Meter).to_string(), "real[m]");
        assert_eq!(FlowType::vector(4).to_string(), "vec4[1]");
        let r = FlowType::record([("x", FlowType::scalar())]);
        assert_eq!(r.to_string(), "{x: real[1]}");
        assert_eq!(Unit::Custom("rpm".into()).to_string(), "rpm");
    }
}
