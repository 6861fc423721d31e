//! The candidate-layer JSONL schema, read line by line.
//!
//! Each line is one flat JSON object describing a candidate layer:
//!
//! ```text
//! {"structure":0,"layer":0,"w_ifm":28,"d_ifm":1,"w_ofm":14,"d_ofm":8,
//!  "f_conv":5,"s_conv":1,"p_conv":2,"pool":{"f":2,"s":2,"p":0},
//!  "ifm_blocks":49,"ofm_blocks":98,"fltr_blocks":13}
//! {"structure":0,"layer":1,"in_features":1568,"out_features":10}
//! ```
//!
//! Conv records carry the seven tuple fields (plus optional `pool`); FC
//! records carry `in_features`/`out_features`. `structure` groups lines
//! into chains (default 0), `layer` orders them (default: line order), and
//! the optional `*_blocks` fields attach measured footprints for the size
//! equations. Unknown keys are ignored. Each line is read with
//! [`cnnre_obs::json::parse`], so it must be one valid JSON object with
//! unique keys; the schema walk below then requires every known field to
//! be an unsigned integer (`null` counts as absent) and `pool` to be an
//! object.

use std::collections::BTreeMap;

use cnnre_attacks::structure::{FcParams, LayerParams, PoolParams};
use cnnre_obs::json::{self, Value};

use crate::geometry::{CandidateChain, CandidateLayer, ObservedSizes};

/// A malformed JSONL input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub detail: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

/// One line's object.
type Record = BTreeMap<String, Value>;

/// The unsigned integer under `key`: `None` when absent or `null`.
fn get_num(obj: &Record, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .num::<u64>()
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be an unsigned integer")),
    }
}

/// The unsigned integer under `key`, which must be present.
fn required(obj: &Record, key: &str) -> Result<usize, String> {
    let n = get_num(obj, key)?.ok_or_else(|| format!("missing required field '{key}'"))?;
    usize::try_from(n).map_err(|_| format!("{key} out of range"))
}

/// Parses a JSONL candidate file into chains, grouped by the `structure`
/// field and ordered by `layer` (falling back to line order).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_candidates(input: &str) -> Result<Vec<CandidateChain>, ParseError> {
    let mut grouped: BTreeMap<u64, Vec<(u64, CandidateLayer)>> = BTreeMap::new();
    for (li, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (structure, order, layer) = parse_record(trimmed).map_err(|detail| ParseError {
            line: li + 1,
            detail,
        })?;
        let order = order.unwrap_or(li as u64);
        grouped.entry(structure).or_default().push((order, layer));
    }
    Ok(grouped
        .into_iter()
        .map(|(structure, mut layers)| {
            layers.sort_by_key(|&(order, _)| order);
            CandidateChain {
                index: usize::try_from(structure).unwrap_or(usize::MAX),
                layers: layers.into_iter().map(|(_, l)| l).collect(),
            }
        })
        .collect())
}

/// One line's `(structure, layer, candidate)`; `structure` defaults to 0.
fn parse_record(line: &str) -> Result<(u64, Option<u64>, CandidateLayer), String> {
    let Value::Obj(obj) = json::parse(line)? else {
        return Err("expected a JSON object".to_string());
    };
    let structure = get_num(&obj, "structure")?.unwrap_or(0);
    Ok((structure, get_num(&obj, "layer")?, parse_layer(&obj)?))
}

fn parse_layer(obj: &Record) -> Result<CandidateLayer, String> {
    let observed = ObservedSizes {
        ifm_blocks: get_num(obj, "ifm_blocks")?,
        ofm_blocks: get_num(obj, "ofm_blocks")?,
        fltr_blocks: get_num(obj, "fltr_blocks")?,
    };
    if get_num(obj, "in_features")?.is_some() && get_num(obj, "out_features")?.is_some() {
        return Ok(CandidateLayer::Fc {
            params: FcParams {
                in_features: required(obj, "in_features")?,
                out_features: required(obj, "out_features")?,
            },
            observed,
        });
    }
    let pool = match obj.get("pool") {
        Some(Value::Obj(p)) => {
            let field = |key| required(p, key).map_err(|e| format!("pool: {e}"));
            Some(PoolParams {
                f: field("f")?,
                s: field("s")?,
                p: field("p")?,
            })
        }
        Some(_) => return Err("'pool' must be an object".to_string()),
        None => None,
    };
    Ok(CandidateLayer::Conv {
        params: LayerParams {
            w_ifm: required(obj, "w_ifm")?,
            d_ifm: required(obj, "d_ifm")?,
            w_ofm: required(obj, "w_ofm")?,
            d_ofm: required(obj, "d_ofm")?,
            f_conv: required(obj, "f_conv")?,
            s_conv: required(obj, "s_conv")?,
            p_conv: required(obj, "p_conv")?,
            pool,
        },
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_conv_fc_chain_with_pool_and_blocks() {
        let input = concat!(
            "# comment\n",
            "{\"structure\":2,\"layer\":0,\"w_ifm\":28,\"d_ifm\":1,\"w_ofm\":14,\"d_ofm\":8,",
            "\"f_conv\":5,\"s_conv\":1,\"p_conv\":2,\"pool\":{\"f\":2,\"s\":2,\"p\":0},",
            "\"ifm_blocks\":49,\"ofm_blocks\":98,\"fltr_blocks\":13}\n",
            "\n",
            "{\"structure\":2,\"layer\":1,\"in_features\":1568,\"out_features\":10}\n",
        );
        let chains = parse_candidates(input).expect("parse");
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].index, 2);
        assert_eq!(chains[0].layers.len(), 2);
        match &chains[0].layers[0] {
            CandidateLayer::Conv { params, observed } => {
                assert_eq!(params.w_ifm, 28);
                assert_eq!(params.pool, Some(PoolParams { f: 2, s: 2, p: 0 }));
                assert_eq!(observed.ifm_blocks, Some(49));
            }
            CandidateLayer::Fc { .. } => panic!("expected conv"),
        }
        match &chains[0].layers[1] {
            CandidateLayer::Fc { params, .. } => assert_eq!(params.in_features, 1568),
            CandidateLayer::Conv { .. } => panic!("expected fc"),
        }
    }

    #[test]
    fn missing_field_names_line_and_key() {
        let err = parse_candidates("{\"w_ifm\":28}\n").expect_err("must fail");
        assert_eq!(err.line, 1);
        assert!(err.detail.contains("d_ifm"), "{}", err.detail);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_candidates("{\"w_ifm\":}").is_err());
        assert!(parse_candidates("[1,2]").is_err());
        assert!(parse_candidates("{\"a\":1} extra").is_err());
    }

    #[test]
    fn bare_words_and_duplicate_keys_are_rejected() {
        let conv = "\"w_ifm\":8,\"d_ifm\":1,\"w_ofm\":6,\"d_ofm\":4,\"f_conv\":3,\
                    \"s_conv\":1,\"p_conv\":0";
        assert!(parse_candidates(&format!("{{{conv}}}")).is_ok());
        assert!(parse_candidates(&format!("{{{conv},\"ifm_blocks\": nope}}")).is_err());
        assert!(parse_candidates(&format!("{{{conv},\"w_ifm\":9}}")).is_err());
        for bad in ["-1", "1.5", "1e3", "\"49\"", "18446744073709551616"] {
            let line = format!("{{{conv},\"ifm_blocks\":{bad}}}");
            assert!(parse_candidates(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn escaped_string_values_parse() {
        let input = "{\"name\": \"conv\\\"1\",\"w_ifm\":8,\"d_ifm\":1,\"w_ofm\":6,\
                     \"d_ofm\":4,\"f_conv\":3,\"s_conv\":1,\"p_conv\":0}";
        let chains = parse_candidates(input).expect("escaped string value parses");
        assert_eq!(chains[0].layers.len(), 1);
    }

    #[test]
    fn unknown_keys_and_scalars_are_ignored() {
        let input = "{\"w_ifm\":8,\"d_ifm\":1,\"w_ofm\":6,\"d_ofm\":4,\"f_conv\":3,\
                     \"s_conv\":1,\"p_conv\":0,\"note\":\"hi\",\"ok\":true,\"x\":null}";
        let chains = parse_candidates(input).expect("parse");
        assert_eq!(chains[0].layers.len(), 1);
    }
}
