//! The workspace's JSON value model.
//!
//! Not a serde-compatible API: there are no `Serialize`/`Deserialize` traits
//! and no derive macros, only the in-memory [`Value`] tree, its [`Error`] and
//! the typed accessors a hand-written codec needs.  The `serde_json` crate
//! beside this one renders the tree to text and parses it back.  Two things
//! in the workspace speak JSON, and both build and read `Value`s by hand:
//! the behaviour repository's durable-store round-trip
//! (`deepdive::repository`) and `e2e_bench`'s result lines.  The crate keeps
//! the `serde` name and path because the benchmark's own manifest names it.

/// An in-memory JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers.
    U64(u64),
    /// Negative integers.
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object; lookups are linear, which is fine at the
    /// sizes this workspace serializes.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required member lookup: an error naming `key` if this is not an
    /// object or has no such member.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.as_object()?;
        self.get(key)
            .ok_or_else(|| Error::new(format!("missing field `{key}`")))
    }

    /// The object's fields, or an error if this is not an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(other.mismatch("object")),
        }
    }

    /// The array's elements, or an error if this is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(other.mismatch("array")),
        }
    }

    /// The boolean, or an error if this is not one.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.mismatch("bool")),
        }
    }

    /// The non-negative integer, or an error if this is anything else
    /// (negative integers and floats included).
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::U64(n) => Ok(*n),
            other => Err(other.mismatch("unsigned integer")),
        }
    }

    /// The number as a float (integers widen), or an error if this is not
    /// a number.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(other.mismatch("number")),
        }
    }

    /// Human-readable kind name for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "integer",
            Value::I64(_) => "negative integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    fn mismatch(&self, expected: &str) -> Error {
        Error::new(format!("expected {expected}, found {}", self.kind()))
    }
}

/// The one error type of the JSON layer: malformed text, a value of the
/// wrong kind, a missing field, or a payload a codec refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_the_payload_or_a_typed_error() {
        let doc = Value::Object(vec![
            ("flag".to_string(), Value::Bool(true)),
            ("count".to_string(), Value::U64(7)),
            ("items".to_string(), Value::Array(vec![Value::F64(1.5)])),
        ]);
        assert_eq!(doc.field("flag").unwrap().as_bool(), Ok(true));
        assert_eq!(doc.field("count").unwrap().as_u64(), Ok(7));
        assert_eq!(doc.field("count").unwrap().as_f64(), Ok(7.0));
        let items = doc.field("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_f64(), Ok(1.5));
        assert_eq!(doc.as_object().unwrap().len(), 3);
        assert_eq!(doc.get("absent"), None);

        let missing = doc.field("absent").unwrap_err().to_string();
        assert!(missing.contains("missing field `absent`"), "{missing}");
        // A required field of a non-object reports the kind, not the key.
        assert!(Value::U64(1).field("x").is_err());
        assert!(Value::Str("x".into()).as_u64().is_err());
        assert!(Value::I64(-1).as_u64().is_err());
        assert!(Value::F64(1.0).as_u64().is_err());
        assert!(Value::U64(1).as_bool().is_err());
        assert!(Value::Bool(true).as_array().is_err());
        assert!(Value::Null.as_f64().is_err());
        assert!(Value::Array(vec![]).as_object().is_err());
    }
}
