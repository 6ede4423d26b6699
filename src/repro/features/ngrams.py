"""AST 4-gram features (§III-B).

A window of length four moves over the pre-order sequence of syntactic
units (AST node types), retaining local structure: *"moving a window of
length four over the list of syntactic units extracted enables to retain
information about the code original syntactic structure."*

The n-gram space is hashed into a fixed number of dimensions so every file
maps into the same vector space regardless of which n-grams it contains.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import Counter

import numpy as np

from repro.js.ast_nodes import Node, iter_child_nodes


def ast_unit_sequence(program: Node) -> list[str]:
    """Pre-order sequence of node types (the paper's syntactic units)."""
    sequence: list[str] = []
    stack = [program]
    while stack:
        node = stack.pop()
        sequence.append(node.type)
        children = list(iter_child_nodes(node))
        stack.extend(reversed(children))
    return sequence


def unit_sequence_fingerprint(sequence: list[str]) -> str:
    """SHA-1 over a pre-order unit sequence: the structural fingerprint.

    The one definition of the wave-clustering digest (§IV-C).  Feature
    extraction applies it to ``FlatIndex.type_names`` (the same sequence
    :func:`ast_unit_sequence` derives from the tree), so a scan gets the
    fingerprint without a second parse.
    """
    return hashlib.sha1("\x00".join(sequence).encode("utf-8")).hexdigest()


def token_unit_sequence(tokens) -> list[str]:
    """Lexical-unit sequence (CUJO-style [39]): token categories, with
    punctuators and keywords kept verbatim since they carry structure."""
    from repro.js.tokens import TokenType

    sequence: list[str] = []
    for token in tokens:
        if token.type is TokenType.EOF:
            continue
        if token.type in (TokenType.PUNCTUATOR, TokenType.KEYWORD):
            sequence.append(token.value)
        else:
            sequence.append(token.type.value)
    return sequence


def token_ngram_vector(
    tokens,
    n: int = 4,
    n_dims: int = 512,
    max_units: int = 200_000,
) -> np.ndarray:
    """Hashed n-gram vector over lexical units instead of AST units.

    Provided for the ablation against the paper's AST 4-grams (related
    work CUJO models reports with lexical n-grams)."""
    sequence = token_unit_sequence(tokens)
    return _hashed_ngrams(sequence, n, n_dims, max_units)


def byte_ngram_vector(
    source: str,
    n_dims: int = 512,
    max_bytes: int = 1_000_000,
) -> np.ndarray:
    """Hashed byte 4-gram vector, fully vectorised (no tokenization).

    The cheapest head for the lexer fast path: pack each 4-byte window of
    the UTF-8 encoding into a 32-bit word, Fibonacci-hash it, and bucket
    with one ``bincount``.  Works on any input, including files the lexer
    rejects.
    """
    data = source.encode("utf-8", errors="replace")[:max_bytes]
    vector = np.zeros(n_dims, dtype=np.float64)
    if len(data) < 4 or n_dims <= 0:
        return vector
    raw = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    words = raw[:-3] | (raw[1:-2] << 8) | (raw[2:-1] << 16) | (raw[3:] << 24)
    # Knuth's multiplicative hash; mask keeps the product in 32 bits so the
    # high half carries the mixed bits.
    buckets = (((words * 2654435761) & 0xFFFFFFFF) >> 16) % n_dims
    counts = np.bincount(buckets.astype(np.int64), minlength=n_dims)
    vector += counts
    total = vector.sum()
    if total > 0:
        vector /= total
    return vector


def ast_ngram_vector(
    program: Node,
    n: int = 4,
    n_dims: int = 512,
    max_units: int = 200_000,
) -> np.ndarray:
    """Hashed, frequency-normalised n-gram vector of length ``n_dims``.

    ``max_units`` caps the traversal on pathological inputs (multi-megabyte
    machine-generated files) — the prefix is representative since n-gram
    frequencies stabilise quickly.
    """
    sequence = ast_unit_sequence(program)
    return _hashed_ngrams(sequence, n, n_dims, max_units)


def hashed_ngram_vector(
    sequence: list[str],
    n: int = 4,
    n_dims: int = 512,
    max_units: int = 200_000,
) -> np.ndarray:
    """Hashed n-gram vector over a precomputed unit sequence.

    Lets callers holding a :class:`repro.js.flat.FlatIndex` reuse its
    pre-order type-name array instead of re-walking the tree."""
    return _hashed_ngrams(sequence, n, n_dims, max_units)


#: ``(n, n_dims) -> {gram tuple -> bucket}``.  The universe of AST-type
#: n-grams is small (node types, not identifiers), so the crc32 bucketing
#: is memoized process-wide; the cap is a safety valve for open-ended
#: unit alphabets (token n-grams over raw punctuator values).
_BUCKET_CACHE: dict[tuple[int, int], dict[tuple[str, ...], int]] = {}
_BUCKET_CACHE_MAX = 1 << 16


def _hashed_ngrams(
    sequence: list[str], n: int, n_dims: int, max_units: int
) -> np.ndarray:
    if len(sequence) > max_units:
        sequence = sequence[:max_units]
    vector = np.zeros(n_dims, dtype=np.float64)
    if len(sequence) < n:
        return vector
    if n == 4:
        grams = zip(sequence, sequence[1:], sequence[2:], sequence[3:])
    else:
        grams = zip(*(sequence[i:] for i in range(n)))
    # Count each distinct gram once, then hash per distinct gram.  Bucket
    # sums stay exact (small integers in float64), so the result is
    # bit-identical to per-occurrence accumulation.
    counts = Counter(grams)
    cache = _BUCKET_CACHE.setdefault((n, n_dims), {})
    cache_get = cache.get
    caching = len(cache) < _BUCKET_CACHE_MAX
    crc32 = zlib.crc32
    for gram, count in counts.items():
        bucket = cache_get(gram)
        if bucket is None:
            bucket = crc32("\x00".join(gram).encode("utf-8")) % n_dims
            if caching:
                cache[gram] = bucket
        vector[bucket] += count
    total = vector.sum()
    if total > 0:
        vector /= total
    return vector
