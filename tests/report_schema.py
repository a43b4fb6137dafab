"""Shape of the JSON power report the CLI emits for a voltage/current pair."""

POWER_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["p_w", "apparent_va", "pf", "per_harmonic", "cross_terms"],
    "additionalProperties": False,
    "properties": {
        "p_w": {"type": "number"},
        "apparent_va": {"type": "number", "minimum": 0},
        "pf": {"type": ["number", "null"], "minimum": -1, "maximum": 1},
        "per_harmonic": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["order", "p_w", "q_var"],
                "additionalProperties": False,
                "properties": {
                    "order": {"type": "number", "exclusiveMinimum": 0},
                    "p_w": {"type": "number"},
                    "q_var": {"type": "number"},
                },
            },
        },
        "cross_terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["blade_indices", "va"],
                "additionalProperties": False,
                "properties": {
                    "blade_indices": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "va": {"type": "number"},
                },
            },
        },
    },
}
