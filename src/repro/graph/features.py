"""Node and edge features (attribute-value pairs).

Section 2 of the paper: "Nodes have features, such as timestamp, author,
etc., modeled as attribute-value pairs."  Features are plain mappings from
attribute name to value; this module adds the small amount of behaviour the
rest of the library needs on top of a dict:

* defensive copying so graphs cannot be mutated through shared dicts,
* similarity scoring between an original node's features and a surrogate's
  features, which backs the default ``infoScore`` (Section 4.1),
* redaction helpers used when deriving surrogates programmatically.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional


def normalize_features(features: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Return a fresh ``dict`` copy of ``features`` (empty dict for ``None``).

    Raises ``TypeError`` when a non-mapping is supplied so that mistakes such
    as ``add_node("a", ["x"])`` fail loudly instead of producing a corrupt
    graph.  A plain ``dict`` — what every decoder and copy hands in — skips
    the ``Mapping`` ABC check, which costs several times the copy itself.
    """
    if type(features) is dict:
        return features.copy()
    if features is None:
        return {}
    if not isinstance(features, Mapping):
        raise TypeError(
            f"features must be a mapping of attribute name to value, got {type(features).__name__}"
        )
    return dict(features)


def features_equal(left: Mapping[str, Any], right: Mapping[str, Any]) -> bool:
    """True when both feature mappings contain exactly the same items."""
    return dict(left) == dict(right)


def feature_overlap(original: Mapping[str, Any], candidate: Mapping[str, Any]) -> float:
    """Fraction of the original node's features preserved exactly by ``candidate``.

    This is the library's default ``infoScore`` heuristic (the paper leaves
    ``infoScore`` provider-defined and suggests defaults based on
    completeness): a surrogate that keeps 2 of 4 original attribute-value
    pairs scores 0.5.  An original node compared with itself scores 1.0, and
    a node with no features is considered fully preserved by any candidate
    (score 1.0) because there is nothing to lose.
    """
    original = dict(original)
    candidate = dict(candidate)
    if not original:
        return 1.0
    preserved = sum(
        1 for name, value in original.items() if name in candidate and candidate[name] == value
    )
    return preserved / len(original)


def redact_features(
    features: Mapping[str, Any],
    *,
    keep: Optional[Iterable[str]] = None,
    drop: Optional[Iterable[str]] = None,
    replacements: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Derive a less-detailed feature mapping for a surrogate node.

    Parameters
    ----------
    features:
        The original node's features.
    keep:
        If given, only these attribute names survive.
    drop:
        Attribute names removed after the ``keep`` filter.
    replacements:
        Attribute values overridden (e.g. ``{"substance": "illegal substance"}``
        replacing ``"heroin"``), mirroring the paper's example of a coarser
        surrogate value.
    """
    result = dict(features)
    if keep is not None:
        keep_set = set(keep)
        result = {name: value for name, value in result.items() if name in keep_set}
    if drop is not None:
        for name in drop:
            result.pop(name, None)
    if replacements:
        for name, value in replacements.items():
            if name in result or keep is None:
                result[name] = value
    return result


def merge_features(base: Mapping[str, Any], extra: Mapping[str, Any]) -> Dict[str, Any]:
    """Return a new mapping with ``extra`` overriding ``base``."""
    merged = dict(base)
    merged.update(extra)
    return merged
