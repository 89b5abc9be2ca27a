//! The one codec of the schema-versioned JSON artifacts (`docs/ARTIFACTS.md`).
//!
//! An artifact is a struct that derives `Serialize` — the struct *is* the
//! schema: its fields, in declaration order, are the artifact's members —
//! behind an envelope that puts the `"schema"` tag first. Writers hand the
//! struct to [`to_json`]; the artifacts the workspace reads back (the four
//! frozen models, the run manifest) also derive `Deserialize` and load
//! through [`from_json`], which gives every reader the same boundary: one
//! parse, the tag checked before anything else, no number that is not
//! finite, and errors that name the member they are about
//! (`bitrate.trees[0][3][2]: expected unsigned integer, found number`).
//! What is left to a loader is what only it can know — its `validate`.
//!
//! Trace lines and the campaign result store are not artifacts in this
//! sense: they have their own tree-free codecs ([`crate::event`],
//! `vcabench_campaign::store`).

use std::borrow::Cow;

use serde::{json, DeError, Deserialize, Serialize};
use serde_json::read::{Cursor, Token};
use serde_json::Value;

/// `body`'s own object with `"schema": <schema>` as its first member.
/// `body` must serialize as an object with no `schema` member of its own.
pub fn envelope<'a>(
    schema: impl Serialize + 'a,
    body: &'a (impl Serialize + ?Sized),
) -> impl Serialize + 'a {
    Envelope(schema, body)
}

struct Envelope<'a, S, B: ?Sized>(S, &'a B);

impl<S: Serialize, B: Serialize + ?Sized> Serialize for Envelope<'_, S, B> {
    fn write_json(&self, out: &mut String) {
        json::write_tagged(out, &[("schema", &self.0)], self.1);
    }
}

/// The artifact file: [`envelope`] pretty-printed, with a trailing newline.
/// A number that is not finite is written `null` (reports score empty
/// pools), which no reader takes back.
pub fn to_json(schema: impl Serialize, body: &impl Serialize) -> String {
    file(&envelope(schema, body))
}

/// The file form of a document that states its own `"schema"` first (the
/// run manifest; [`to_json`] is every other artifact's): pretty-printed,
/// with a trailing newline.
pub fn file(doc: &impl Serialize) -> String {
    let mut text = serde_json::to_string_pretty(doc).expect("writing text is infallible");
    text.push('\n');
    text
}

/// [`to_json`] for an artifact that is read back: a frozen model. The text
/// is loaded back before it is returned, so a number that is not finite —
/// written `null` — is an error naming its member: the file could never
/// load.
pub fn frozen_json<T: Serialize + Deserialize>(schema: &str, body: &T) -> Result<String, String> {
    let text = to_json(schema, body);
    from_json::<T>(
        &format!("refusing to freeze a `{schema}` artifact"),
        schema,
        &text,
    )?;
    Ok(text)
}

/// Parse `text` once, check that it carries `schema`, refuse any number
/// that is not finite (`1e999` is well-formed JSON and parses to `inf`),
/// and decode the tree as a `T`. Errors start with `what` and carry the
/// path of the member they are about.
pub fn from_json<T: Deserialize>(
    what: &str,
    schema: impl Serialize,
    text: &str,
) -> Result<T, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{what}: {e}");
    let tree: Value = serde_json::from_str(text).map_err(|e| fail(&e))?;
    let show = |v: &dyn Serialize| serde_json::to_string(v).expect("infallible");
    let (found, want) = (tree.get("schema").map(|v| show(v)), show(&schema));
    if found.as_ref() != Some(&want) {
        let found = found.map_or("no schema tag".to_string(), |v| format!("schema {v}"));
        return Err(fail(&format!("{found}, expected {want}")));
    }
    match non_finite(&tree) {
        Some(e) => Err(fail(&e)),
        None => T::from_json_value(&tree).map_err(|e| fail(&e)),
    }
}

/// Where the first number of `v` that is NaN or infinite sits.
fn non_finite(v: &Value) -> Option<DeError> {
    match v {
        Value::F64(f) if !f.is_finite() => Some(DeError::msg("number is not finite")),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| Some(non_finite(item)?.at_index(i))),
        Value::Object(members) => members
            .iter()
            .find_map(|(key, member)| Some(non_finite(member)?.in_field(key))),
        _ => None,
    }
}

/// The first top-level string member named `"schema"`, read off a cursor:
/// no tree is built, and nothing after the tag is looked at ([`from_json`]
/// is what checks a document; this is for asking which loader it is for).
pub fn schema_of(text: &str) -> Result<Cow<'_, str>, String> {
    let mut c = Cursor::new(text);
    let mut scan = || -> Result<Option<Cow<'_, str>>, serde_json::Error> {
        if c.value()? != Token::Object {
            return Ok(None);
        }
        c.open()?;
        while let Some(key) = c.key()? {
            match c.value()? {
                Token::Str(tag) if key == "schema" => return Ok(Some(tag)),
                Token::Array | Token::Object => c.skip_value()?,
                _ => {}
            }
        }
        Ok(None)
    };
    scan()
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "no schema tag".to_string())
}

/// A pinned list (`features`, `families`) as a model artifact states it.
pub fn list(pinned: &[&str]) -> Vec<String> {
    pinned.iter().map(|name| name.to_string()).collect()
}

/// The [`list`] an artifact states must be, name for name, the one this
/// build computes with.
pub fn expect_list(what: &str, of: &str, found: &[String], pinned: &[&str]) -> Result<(), String> {
    if found == pinned {
        return Ok(());
    }
    Err(format!(
        "{what}: {of} list {found:?} does not match {pinned:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Body {
        #[serde(rename = "end_us")]
        end: u64,
        weights: [f64; 2],
        rows: Vec<(String, f64)>,
    }

    const TAG: &str = "vcabench-test/v1";

    fn body() -> Body {
        Body {
            end: 7,
            weights: [0.5, -2.0],
            rows: vec![("a".to_string(), 1.5)],
        }
    }

    #[test]
    fn the_tag_comes_first_and_the_file_round_trips() {
        let text = to_json(TAG, &body());
        assert!(text.starts_with("{\n  \"schema\": \"vcabench-test/v1\",\n  \"end_us\": 7,\n"));
        assert!(text.ends_with("}\n"));
        assert_eq!(from_json::<Body>("test", TAG, &text), Ok(body()));
        assert_eq!(frozen_json(TAG, &body()), Ok(text.clone()));
        assert_eq!(schema_of(&text).as_deref(), Ok(TAG));
        // A numeric tag (the manifest's trace schema version) works alike.
        let text = to_json(3u32, &body());
        assert_eq!(from_json::<Body>("test", 3u32, &text), Ok(body()));
        assert!(from_json::<Body>("test", 4u32, &text).is_err());
    }

    #[test]
    fn readers_refuse_with_the_member_named() {
        let text = to_json(TAG, &body());
        let err = |text: &str| from_json::<Body>("test", TAG, text).unwrap_err();
        assert_eq!(
            err(&text.replace("test/v1", "test/v2")),
            "test: schema \"vcabench-test/v2\", expected \"vcabench-test/v1\""
        );
        assert_eq!(
            err("{\"end_us\": 7}"),
            "test: no schema tag, expected \"vcabench-test/v1\""
        );
        assert_eq!(
            err(&text.replace("-2", "-1e999")),
            "test: weights[1]: number is not finite"
        );
        assert_eq!(
            err(&text.replace("1.5", "1e999")),
            "test: rows[0][1]: number is not finite"
        );
        assert_eq!(
            err(&text.replace("-2", "\"x\"")),
            "test: weights[1]: expected number, found string"
        );
        assert_eq!(
            err(&text.replace("0.5,", "")),
            "test: weights: expected array of length 2, found 1"
        );
        assert_eq!(
            err(&text.replace("end_us", "end")),
            "test: missing field `end_us`"
        );
        assert!(err(&text[..text.len() - 3]).starts_with("test: expected `,` or `}`"));
    }

    #[test]
    #[should_panic(expected = "refusing to freeze a `vcabench-test/v1` artifact: weights[0]")]
    fn a_number_that_is_not_finite_is_not_frozen() {
        let mut body = body();
        body.weights[0] = f64::NAN;
        // The report writer is lossy on purpose; the model writer is not:
        // it returns the error this `unwrap` trips over.
        assert!(to_json(TAG, &body).contains("null"));
        frozen_json(TAG, &body).unwrap();
    }

    #[test]
    fn a_frozen_null_is_refused_with_the_member_named() {
        let mut body = body();
        body.rows.push(("b".to_string(), f64::NAN));
        assert_eq!(
            frozen_json(TAG, &body),
            Err("refusing to freeze a `vcabench-test/v1` artifact: \
                 rows[1][1]: expected number, found null"
                .to_string())
        );
    }

    #[test]
    fn schema_of_reads_the_tag_and_nothing_after_it() {
        assert_eq!(
            schema_of(" {\"n\":[1,{\"schema\":\"inner\"}],\"schema\":\"outer\",,,").as_deref(),
            Ok("outer")
        );
        assert_eq!(schema_of("{\"schema\":\"a\\u0062\"}").as_deref(), Ok("ab"));
        for untagged in [
            "{}",
            "[]",
            "7",
            "{\"schema\":1}",
            "{\"schema\":null,\"x\":2}",
        ] {
            assert_eq!(schema_of(untagged), Err("no schema tag".to_string()));
        }
        assert!(schema_of("{\"a\":[1,}").unwrap_err().contains("byte 8"));
        assert!(schema_of("").is_err());
    }

    #[test]
    fn pinned_lists_must_match_name_for_name() {
        let found = list(&["a", "b"]);
        assert_eq!(expect_list("m", "feature", &found, &["a", "b"]), Ok(()));
        let err = expect_list("m", "feature", &found, &["b", "a"]).unwrap_err();
        assert_eq!(
            err,
            "m: feature list [\"a\", \"b\"] does not match [\"b\", \"a\"]"
        );
        assert!(expect_list("m", "feature", &found[..1], &["a", "b"]).is_err());
    }
}
