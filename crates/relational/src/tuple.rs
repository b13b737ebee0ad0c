//! Rows.

use std::borrow::Borrow;
use std::fmt;

use crate::schema::Schema;
use crate::value::Value;

/// A row: a boxed slice of values positionally matching a [`Schema`].
///
/// Rows live in their [`Segment`](crate::segment::Segment) and the
/// operators borrow them: scans yield row positions, joins bind `&Row`s.
/// A `Row` is also the owned form of a multi-column key (join keys,
/// group-by keys). It borrows as `[Value]`, with equal hashes, so a
/// `FxHashMap<Row, _>` is probed with a reused `&[Value]` buffer and a
/// `Row` is allocated only when a key is new.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Value at column `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Checks the row against a schema (arity and per-column types).
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.len()
            && self
                .values
                .iter()
                .zip(schema.fields())
                .all(|(v, f)| f.dtype.admits(v))
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// `Row`'s derived `Hash`, `Eq` and `Ord` all delegate to its value
/// slice, which is what makes this `Borrow` sound.
impl Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Builds a [`Row`] from value-convertible literals.
///
/// ```
/// use skipper_relational::row;
/// use skipper_relational::value::Value;
/// let r = row![1i64, "MAIL", 2.5];
/// assert_eq!(r.get(1), &Value::str("MAIL"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    #[test]
    fn row_macro_and_access() {
        let r = row![5i64, "SHIP"];
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), &Value::Int(5));
        assert_eq!(r.get(1).as_str(), Some("SHIP"));
    }

    #[test]
    fn conformance() {
        let s = Schema::of(&[("k", DataType::Int), ("m", DataType::Str)]);
        assert!(row![1i64, "x"].conforms_to(&s));
        assert!(!row![1i64].conforms_to(&s));
        assert!(!row!["x", 1i64].conforms_to(&s));
        // NULL conforms to any column type.
        let r = Row::new(vec![Value::Null, Value::Null]);
        assert!(r.conforms_to(&s));
    }

    #[test]
    fn rows_as_hash_keys() {
        use crate::hash::FxHashMap;
        let mut m: FxHashMap<Row, u32> = FxHashMap::default();
        m.insert(row![1i64, "a"], 10);
        assert_eq!(m.get(&row![1i64, "a"]), Some(&10));
        assert_eq!(m.get(&row![1i64, "b"]), None);
    }

    #[test]
    fn rows_are_found_by_borrowed_value_slices() {
        use crate::hash::FxHashMap;
        use std::hash::BuildHasher;
        let keys = [
            row!["MAIL", 1.5f64, Value::Date(9_000), 7i64],
            row!["SHIP", -0.25f64, Value::Date(9_001), 7i64],
            row!["MAIL", 1.5f64, Value::Date(9_000), 8i64],
            Row::new(vec![
                Value::Null,
                Value::Float(0.0),
                Value::Date(0),
                Value::Int(0),
            ]),
        ];
        let mut m: FxHashMap<Row, usize> = FxHashMap::default();
        for (i, k) in keys.iter().enumerate() {
            m.insert(k.clone(), i);
        }
        let hasher = m.hasher().clone();
        for (i, k) in keys.iter().enumerate() {
            // A freshly built value buffer, as the join and aggregation
            // loops reuse one.
            let probe: Vec<Value> = k.values().to_vec();
            assert_eq!(m.get(probe.as_slice()), Some(&i));
            assert_eq!(
                hasher.hash_one(k),
                hasher.hash_one(probe.as_slice()),
                "Row and [Value] hashes must agree for {k:?}"
            );
        }
        let absent = [
            Value::str("MAIL"),
            Value::Float(1.5),
            Value::Date(9_000),
            Value::Int(9),
        ];
        assert_eq!(m.get(&absent[..]), None);
        // A prefix of a key is a different key.
        assert_eq!(m.get(&keys[0].values()[..3]), None);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", row![1i64, "x"]), "[1, x]");
    }
}
