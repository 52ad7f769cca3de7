//! Offline stand-in for `serde_json`, layered over the vendored `serde`
//! stand-in's [`Value`] tree.
//!
//! Provides the slice of the real API this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], [`from_value`] and
//! [`Value`] with indexing. Output is deterministic: objects print in
//! insertion order and floats use Rust's shortest round-trip formatting.

pub use serde::{Number, Value};

mod parse;
mod print;

pub use parse::Error;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::write_compact(&value.serialize()))
}

/// Serializes `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::write_pretty(&value.serialize()))
}

/// Parses a value of type `T` out of a JSON string.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T, Error> {
    let value = parse::parse(input)?;
    T::deserialize(&value).map_err(|e| Error::new(e.to_string()))
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.serialize())
}

/// Reconstructs a `T` from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::deserialize(&value).map_err(|e| Error::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "3.25",
            "\"hi \\\"there\\\"\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
        ];
        for case in cases {
            let v: Value = from_str(case).unwrap();
            assert_eq!(to_string(&v).unwrap(), case, "round-trip of {case}");
        }
    }

    #[test]
    fn pretty_output_reparses() {
        let v: Value = from_str("{\"a\":[1,{\"b\":2}],\"c\":\"x\"}").unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("{\"a\":1} trailing").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        let deepest = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(from_str::<Value>(&deepest).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(128), "}".repeat(128));
        assert!(from_str::<Value>(&objects).is_ok());
        for too_deep in [
            format!("{}{}", "[".repeat(129), "]".repeat(129)),
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
        ] {
            let err = from_str::<Value>(&too_deep).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded"), "{err}");
        }
    }

    #[test]
    fn numbers_preserve_integerness() {
        let v: Value =
            from_str("{\"i\":42,\"n\":-3,\"f\":0.5,\"big\":18446744073709551615}").unwrap();
        assert_eq!(v["i"].as_u64(), Some(42));
        assert_eq!(v["n"].as_i64(), Some(-3));
        assert_eq!(v["f"].as_f64(), Some(0.5));
        assert_eq!(v["big"].as_u64(), Some(u64::MAX));
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"i\":42,\"n\":-3,\"f\":0.5,\"big\":18446744073709551615}"
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original =
            Value::String("line\nbreak\ttab \"quote\" back\\slash \u{1} end".to_string());
        let text = to_string(&original).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, original);
    }
}
