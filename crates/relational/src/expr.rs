//! Scalar expressions over single-table rows.
//!
//! These cover everything the four benchmark workloads need: column
//! references, literals, comparisons, boolean connectives, `IN` lists,
//! `BETWEEN`, arithmetic, and `CASE WHEN` (for TPC-H Q12's conditional
//! counts). Expressions over *joined* rows live in
//! [`crate::query::JoinExpr`].

use std::borrow::Cow;
use std::fmt;

use crate::tuple::Row;
use crate::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison using the engine's total value order.
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = l.cmp(r);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Binary arithmetic operators (float semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
}

/// A scalar expression evaluated against one row.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (short-circuiting).
    And(Vec<Expr>),
    /// Logical OR (short-circuiting).
    Or(Vec<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Value, Value),
    /// Arithmetic on numeric expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// `self IN (values)`.
    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    /// `self BETWEEN lo AND hi`.
    pub fn between(self, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::Between(Box::new(self), lo.into(), hi.into())
    }

    /// Evaluates against a row, yielding a value.
    pub fn eval(&self, row: &Row) -> Value {
        match self {
            Expr::Col(idx) => row.get(*idx).clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::InList(..)
            | Expr::Between(..) => Value::Bool(self.matches(row)),
            Expr::Arith(op, l, r) => {
                let (Some(a), Some(b)) = (l.eval(row).as_f64(), r.eval(row).as_f64()) else {
                    return Value::Null;
                };
                Value::Float(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                })
            }
            Expr::Case(cond, then, otherwise) => {
                if cond.matches(row) {
                    then.eval(row)
                } else {
                    otherwise.eval(row)
                }
            }
        }
    }

    /// Evaluates as a predicate (NULL ⇒ false).
    ///
    /// Column and literal operands are read in place, so a comparison,
    /// `IN` list or `BETWEEN` over them clones no value.
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Expr::Cmp(op, l, r) => {
                let (lv, rv) = (l.operand(row), r.operand(row));
                !lv.is_null() && !rv.is_null() && op.apply(&lv, &rv)
            }
            Expr::And(parts) => parts.iter().all(|p| p.matches(row)),
            Expr::Or(parts) => parts.iter().any(|p| p.matches(row)),
            Expr::Not(e) => !e.matches(row),
            Expr::InList(e, values) => {
                let v = e.operand(row);
                values.iter().any(|c| c == &*v)
            }
            Expr::Between(e, lo, hi) => {
                let v = e.operand(row);
                !v.is_null() && &*v >= lo && &*v <= hi
            }
            Expr::Col(_) | Expr::Lit(_) | Expr::Arith(..) | Expr::Case(..) => {
                self.eval(row).is_truthy()
            }
        }
    }

    /// The operand's value: borrowed for a column or literal, computed
    /// through [`Expr::eval`] otherwise.
    #[inline]
    fn operand<'a>(&'a self, row: &'a Row) -> Cow<'a, Value> {
        match self {
            Expr::Col(idx) => Cow::Borrowed(row.get(*idx)),
            Expr::Lit(v) => Cow::Borrowed(v),
            e => Cow::Owned(e.eval(row)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, l, r) => write!(f, "({l} {op:?} {r})"),
            Expr::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::InList(e, vs) => {
                write!(f, "{e} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Expr::Between(e, lo, hi) => write!(f, "{e} BETWEEN {lo} AND {hi}"),
            Expr::Arith(op, l, r) => write!(f, "({l} {op:?} {r})"),
            Expr::Case(c, t, e) => write!(f, "CASE WHEN {c} THEN {t} ELSE {e} END"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn comparisons() {
        let r = row![10i64, "MAIL"];
        assert!(Expr::col(0).eq(Expr::lit(10i64)).matches(&r));
        assert!(Expr::col(0).lt(Expr::lit(11i64)).matches(&r));
        assert!(Expr::col(0).le(Expr::lit(10i64)).matches(&r));
        assert!(Expr::col(0).gt(Expr::lit(9i64)).matches(&r));
        assert!(Expr::col(0).ge(Expr::lit(10i64)).matches(&r));
        assert!(!Expr::col(0).eq(Expr::lit(11i64)).matches(&r));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = Row::new(vec![Value::Null]);
        assert!(!Expr::col(0).eq(Expr::lit(0i64)).matches(&r));
        assert!(!Expr::col(0).lt(Expr::lit(0i64)).matches(&r));
        assert!(!Expr::col(0).between(0i64, 10i64).matches(&r));
    }

    #[test]
    fn boolean_connectives() {
        let r = row![5i64];
        let t = Expr::col(0).eq(Expr::lit(5i64));
        let f = Expr::col(0).eq(Expr::lit(6i64));
        assert!(t.clone().and(t.clone()).matches(&r));
        assert!(!t.clone().and(f.clone()).matches(&r));
        assert!(Expr::Or(vec![f.clone(), t.clone()]).matches(&r));
        assert!(!Expr::Or(vec![f.clone(), f.clone()]).matches(&r));
        assert!(Expr::Not(Box::new(f)).matches(&r));
        assert!(!Expr::Not(Box::new(t)).matches(&r));
    }

    #[test]
    fn and_flattens() {
        let a = Expr::col(0).eq(Expr::lit(1i64));
        let b = Expr::col(0).eq(Expr::lit(2i64));
        let c = Expr::col(0).eq(Expr::lit(3i64));
        let combined = a.and(b).and(c);
        match combined {
            Expr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn in_list_and_between() {
        let r = row!["SHIP", 15i64];
        assert!(Expr::col(0)
            .in_list(vec![Value::str("MAIL"), Value::str("SHIP")])
            .matches(&r));
        assert!(!Expr::col(0).in_list(vec![Value::str("AIR")]).matches(&r));
        assert!(Expr::col(1).between(10i64, 20i64).matches(&r));
        assert!(Expr::col(1).between(15i64, 15i64).matches(&r));
        assert!(!Expr::col(1).between(16i64, 20i64).matches(&r));
    }

    #[test]
    fn arithmetic() {
        let r = row![3i64, 4.0f64];
        let e = Expr::Arith(ArithOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        assert_eq!(e.eval(&r), Value::Float(12.0));
        let e = Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::lit(1.0f64)),
            Box::new(Expr::col(1)),
        );
        assert_eq!(e.eval(&r), Value::Float(-3.0));
        // Arithmetic over a string yields NULL.
        let bad = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::lit("x")),
            Box::new(Expr::col(0)),
        );
        assert!(bad.eval(&r).is_null());
    }

    #[test]
    fn case_when() {
        // TPC-H Q12's shape: CASE WHEN priority IN (...) THEN 1 ELSE 0 END.
        let high = Expr::Case(
            Box::new(Expr::col(0).in_list(vec![Value::str("1-URGENT"), Value::str("2-HIGH")])),
            Box::new(Expr::lit(1i64)),
            Box::new(Expr::lit(0i64)),
        );
        assert_eq!(high.eval(&row!["1-URGENT"]), Value::Int(1));
        assert_eq!(high.eval(&row!["5-LOW"]), Value::Int(0));
    }

    #[test]
    fn display_renders() {
        let e = Expr::col(1).between(3i64, 9i64);
        assert_eq!(e.to_string(), "$1 BETWEEN 3 AND 9");
    }

    #[test]
    fn date_range_predicate() {
        let r = row![Value::Date(400)];
        let e = Expr::col(0)
            .ge(Expr::lit(Value::Date(365)))
            .and(Expr::col(0).lt(Expr::lit(Value::Date(730))));
        assert!(e.matches(&r));
        assert!(!e.matches(&row![Value::Date(900)]));
    }
}
