"""Lossless persistence of configurations and JSON reports."""

import json

from .configuration import Configuration

SCHEMA = "jampack-config/1"
_FIELDS = {"schema", "box", "radius", "centers", "metadata"}


class SchemaError(ValueError):
    """Malformed or unsupported configuration file."""


def write_config(config: Configuration, path):
    """Write a configuration as versioned JSON; floats keep full precision
    (shortest round-trip decimal), so write/read is lossless.

    The bytes are json.dump's with indent=1; the centres are formatted
    directly, all by one % call, since json's indenting encoder runs in
    pure Python."""
    box = "plane" if config.box is None else [config.box[0], config.box[1]]
    head = json.dumps({"schema": SCHEMA, "box": box,
                       "radius": config.radius}, indent=1)
    rows = (",\n".join(["  [\n   %r,\n   %r\n  ]"] * config.n)
            % tuple(config.centers.ravel().tolist()))
    centers = "[\n%s\n ]" % rows if rows else "[]"
    # json strings hold no raw newline, so this indents one level deeper
    meta = json.dumps(config.metadata, indent=1).replace("\n", "\n ")
    with open(path, "w") as fh:
        fh.write('%s,\n "centers": %s,\n "metadata": %s\n}\n'
                 % (head[:-2], centers, meta))


def read_config(path) -> Configuration:
    """Read a configuration file; unknown or missing fields, version
    mismatches and wrong JSON types are refused by name, and so is what
    Configuration refuses, as a SchemaError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError("malformed configuration file %s: %s" % (path, e))
    if not isinstance(doc, dict):
        raise SchemaError("configuration file must be a JSON object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise SchemaError("unknown field(s): %s" % ", ".join(sorted(unknown)))
    for name in ("schema", "box", "radius", "centers"):
        if name not in doc:
            raise SchemaError("missing field: %s" % name)
    if doc["schema"] != SCHEMA:
        raise SchemaError("unsupported schema version: %r" % doc["schema"])
    box = doc["box"]
    if not (box == "plane" or isinstance(box, list)):
        raise SchemaError("box must be [width, height] or \"plane\"")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be a JSON object")
    try:
        return Configuration(doc["radius"], doc["centers"],
                             None if box == "plane" else box, metadata)
    except ValueError as e:
        raise SchemaError(str(e)) from None


def write_report(doc: dict, path):
    """Write a report, a dict of JSON values such as verify's, as JSON with
    indent 1 and its keys in insertion order."""
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as e:
        raise OSError("failed to write report to %s: %s" % (path, e))
