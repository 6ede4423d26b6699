"""Seed-pure workload inputs with planted ground truth.

Each workload draws from one fixed *population*, generated from
:data:`POPULATION_SEED` by the program's own corpus builders; the run's
``--seed`` fixes the order in which its containers are fed
(:meth:`Corpus.ordered`).  Every run therefore reads nearly the same
mix of scripts, so seed-to-seed differences in content do not swamp the
timing — on the reference host, re-drawing the population per seed
spread ``files_per_s`` by 16% across five seeds against 4% for five
repeats of one seed.  The order is dealt by input size (:meth:`Corpus.ordered`)
so that a run which covers only part of the population still reads its mix.

Generation must run with a fixed ``PYTHONHASHSEED``: the malicious
generator seeds itself from a tuple hash.  :func:`corpus_digest` hashes
the ordered units, so two runs can be shown to have read identical bytes.

Units are byte-distinct.  When a measurement outlasts the corpus, the
next pass re-emits every unit with a pass marker comment appended
(:func:`variant`), so no unit is ever scanned or served twice.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import random
import tarfile
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

#: seed of every workload population.
POPULATION_SEED = 2021
#: npm packages that also ship a dist bundle of their regular modules.
BUNDLE_EVERY = 4

_WORDS = (
    "home", "news", "shop", "account", "search", "help", "about", "contact",
    "blog", "docs", "pricing", "careers", "press", "login", "cart", "menu",
)


@dataclass(frozen=True)
class Unit:
    """One script with its planted truth."""

    source: str
    transformed: bool
    labels: tuple[str, ...]
    container: int
    name: str


@dataclass
class Corpus:
    workload: str
    containers: list[list[Unit]]  #: packages, pages, or one request each

    def ordered(self, seed: int, group: int, halves: bool = False) -> "Corpus":
        """The population in the container order ``seed`` fixes.

        Containers are dealt by size, snake-wise, into groups of ``group``
        so that every group — one scan round, or a stretch of requests —
        holds a like mix of small and large inputs; ``seed`` then shuffles
        the groups and the containers within each.  A run that covers only
        part of the population still sees the population's mix.

        With ``halves``, the groups dealt to even and to odd slots form two
        fixed halves of like mix, and the order alternates between them:
        group ``k`` of the result is from half ``k % 2`` whatever the seed.
        A run that gives each half its own kind of round then measures each
        kind on the same containers every time, in another order.
        """
        rng = random.Random(seed)
        by_size = sorted(
            self.containers, key=lambda c: (-sum(len(u.source) for u in c), c[0].name)
        )
        count = max(1, len(by_size) // group)
        groups: list[list[list[Unit]]] = [[] for _ in range(count)]
        for index, container in enumerate(by_size[: count * group]):
            lap, slot = divmod(index, count)
            groups[slot if lap % 2 == 0 else count - 1 - slot].append(container)
        rest = by_size[count * group :]
        if halves:
            even, odd = groups[0::2], groups[1::2]
            rng.shuffle(even)
            rng.shuffle(odd)
            groups = [g for pair in zip_longest(even, odd) for g in pair if g is not None]
        else:
            rng.shuffle(groups)
        for members in groups:
            rng.shuffle(members)
        rng.shuffle(rest)
        return Corpus(self.workload, [c for members in groups for c in members] + rest)

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "containers": [
                    [[u.source, u.transformed, list(u.labels), u.container, u.name] for u in c]
                    for c in self.containers
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Corpus":
        data = json.loads(text)
        return cls(
            data["workload"],
            [
                [Unit(src, bool(t), tuple(labels), int(box), name) for src, t, labels, box, name in c]
                for c in data["containers"]
            ],
        )

    @property
    def units(self) -> list[Unit]:
        return [unit for container in self.containers for unit in container]

    @property
    def digest(self) -> str:
        return corpus_digest(self.units)

    @property
    def n_bytes(self) -> int:
        return sum(len(unit.source.encode("utf-8")) for unit in self.units)


def sha256_text(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8", errors="replace")).hexdigest()


def corpus_digest(units: list[Unit]) -> str:
    digest = hashlib.sha256()
    for unit in units:
        digest.update(
            json.dumps(
                [unit.container, unit.name, unit.source, unit.transformed, unit.labels]
            ).encode("utf-8")
        )
    return digest.hexdigest()


def variant(source: str, pass_no: int) -> str:
    """The unit as emitted on corpus pass ``pass_no`` (pass 0 is unchanged)."""
    return source if pass_no == 0 else f"{source}\n// pass {pass_no}"


def _labels(techniques) -> tuple[str, ...]:
    return tuple(sorted(technique.value for technique in techniques))


def _distinct(containers: list[list[Unit]]) -> list[list[Unit]]:
    """Drop repeated sources so every unit is byte-distinct."""
    seen: set[str] = set()
    kept: list[list[Unit]] = []
    for container in containers:
        fresh = []
        for unit in container:
            key = sha256_text(unit.source)
            if key not in seen:
                seen.add(key)
                fresh.append(unit)
        if fresh:
            kept.append(fresh)
    return kept


def npm_corpus(seed: int, n_scripts: int) -> Corpus:
    """npm-top-like packages: ~5 modules each, every 4th with a dist bundle."""
    from repro.corpus.datasets import npm_top

    packages: dict[int, list[Unit]] = {}
    for index, script in enumerate(npm_top(n_scripts, seed=seed)):
        packages.setdefault(script.container, []).append(
            Unit(
                script.source,
                script.transformed,
                _labels(script.labels),
                script.container,
                f"package/lib/m{index}.js",
            )
        )
    containers = []
    for package, modules in sorted(packages.items()):
        regular = [unit for unit in modules if not unit.transformed]
        if package % BUNDLE_EVERY == 1 and len(regular) >= 2:
            body = "\n".join(
                f"// {unit.name}\n(function () {{\n{unit.source}\n}})();"
                for unit in regular
            )
            modules = modules + [
                Unit(body, False, (), package, "package/dist/bundle.js")
            ]
        containers.append(modules)
    return Corpus("npm_scan", _distinct(containers))


def alexa_corpus(seed: int, n_scripts: int) -> Corpus:
    """Alexa-top-like pages: ~4 inline scripts per page, mostly minified."""
    from repro.corpus.datasets import alexa_top

    pages: dict[int, list[Unit]] = {}
    for index, script in enumerate(alexa_top(n_scripts, seed=seed)):
        # Inline bodies are extracted stripped; plant exactly those bytes.
        source = script.source.strip()
        if "</script" in source.lower():
            continue
        pages.setdefault(script.container, []).append(
            Unit(
                source,
                script.transformed,
                _labels(script.labels),
                script.container,
                f"script{index}",
            )
        )
    return Corpus("alexa_scan", _distinct([pages[key] for key in sorted(pages)]))


def malware_corpus(seed: int, per_origin: int) -> Corpus:
    """DNC/Hynek/BSI-like samples, interleaved in a seed-fixed order."""
    from repro.corpus.malicious import MaliciousGenerator

    samples = []
    for origin in ("dnc", "hynek", "bsi"):
        samples.extend(MaliciousGenerator(origin, seed=seed).generate(per_origin))
    random.Random(seed).shuffle(samples)
    containers = [
        [
            Unit(
                sample.source,
                sample.transformed,
                _labels(sample.techniques),
                index,
                f"{sample.origin}-{index}",
            )
        ]
        for index, sample in enumerate(samples)
    ]
    return Corpus("malware_serve", _distinct(containers))


#: workload -> population builder ``(seed, size) -> Corpus``.
POPULATIONS = {
    "npm_scan": npm_corpus,
    "alexa_scan": alexa_corpus,
    "malware_serve": malware_corpus,
}


# -- on-disk containers ---------------------------------------------------------


def write_package(path: Path, modules: list[Unit], pass_no: int) -> dict[str, Unit]:
    """One gzip tarball (fixed mtimes: same bytes every time); ``{sha: unit}``."""
    truth: dict[str, Unit] = {}
    raw = io.BytesIO()
    with tarfile.open(fileobj=raw, mode="w") as archive:
        manifest = json.dumps({"name": f"pkg-{modules[0].container}", "version": "1.0.0"})
        members = [("package/package.json", manifest)]
        for unit in modules:
            source = variant(unit.source, pass_no)
            truth[sha256_text(source)] = unit
            members.append((unit.name, source))
        for name, text in members:
            data = text.encode("utf-8")
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mtime = 0
            archive.addfile(info, io.BytesIO(data))
    path.write_bytes(gzip.compress(raw.getvalue(), mtime=0))
    return truth


def write_page(path: Path, scripts: list[Unit], pass_no: int) -> dict[str, Unit]:
    """One HTML page: inline scripts, external refs and markup filler."""
    truth: dict[str, Unit] = {}
    site = scripts[0].container
    rng = random.Random(site)
    parts = [
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">",
        f"<title>site {site}</title>",
        f"<script src=\"https://cdn.example.net/s{site}/vendor.js\"></script>",
        "</head><body>",
    ]
    for unit in scripts:
        words = " ".join(rng.choice(_WORDS) for _ in range(40))
        parts.append(
            f"<div class=\"section {rng.choice(_WORDS)}\" id=\"{unit.name}\">"
            f"<a href=\"/{rng.choice(_WORDS)}\">{rng.choice(_WORDS)}</a><p>{words}</p></div>"
        )
        source = variant(unit.source, pass_no)
        truth[sha256_text(source)] = unit
        parts.append(f"<script>\n{source}\n</script>")
    parts.append(
        f"<script async src=\"https://stats.example.org/t.js?s={site}\"></script>"
        "</body></html>\n"
    )
    path.write_text("".join(parts), encoding="utf-8")
    return truth
