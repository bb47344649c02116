"""Seeded synthetic mini-Java corpus over the synthetic API.

Each generated file holds one client class whose methods are downcast
idioms: a chain of instance calls on the synthetic API followed by a
cast of the chain's result to one of its subtypes, the shape the miner
extracts (``(IStructuredSelection) page.getSelection()`` in the bundled
corpus). Files are kept as structured specs so an edit (touch a comment,
add or drop an idiom, add or remove a file) re-renders one file's text
deterministically.

Every generated class has a unique simple and qualified name. A
duplicate would make the loader quarantine files and turn each update
into culprit elimination, so only the intended broken files fail, and
they fail in resolution (they reference a type that does not exist).

The same registry, parameters and seed produce byte-identical texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.typesystem import NamedType, TypeRegistry

#: Package prefix of the types :func:`repro.apispec.generate_synthetic_api` emits.
SYNTH_PREFIX = "synth."


@dataclass(frozen=True)
class Call:
    """One instance call of an idiom chain: ``recv.name(p_i, ...)``."""

    owner: str
    name: str
    params: Tuple[str, ...]
    returns: str


@dataclass(frozen=True)
class Idiom:
    """A call chain from ``receiver`` whose result is cast to ``cast_to``."""

    calls: Tuple[Call, ...]
    cast_to: str

    @property
    def receiver(self) -> str:
        return self.calls[0].owner

    @property
    def query(self) -> Tuple[str, str]:
        """The jungloid query this idiom answers once mined."""
        return (self.receiver, self.cast_to)


@dataclass(frozen=True)
class FileSpec:
    """One corpus file: a client class holding idioms, or a broken file."""

    index: int
    idioms: Tuple[Idiom, ...] = ()
    touches: int = 0
    broken: bool = False

    @property
    def stem(self) -> str:
        return f"{'broken' if self.broken else 'client'}{self.index:04d}"

    @property
    def source(self) -> str:
        return f"{self.stem}.mj"

    def render(self) -> str:
        class_name = self.stem.capitalize()
        lines = [f"// generated {self.stem}", f"package gen.{self.stem};", ""]
        lines.append(f"public class {class_name} {{")
        if self.broken:
            # Resolution fails: the parameter type is declared nowhere.
            lines.append("  public void use(synth.missing.Nowhere gone) {")
            lines.append("  }")
        for k, idiom in enumerate(self.idioms):
            lines.extend(_render_idiom(k, idiom))
        lines.append("}")
        lines.extend(f"// edit {t}" for t in range(self.touches))
        return "\n".join(lines) + "\n"


def _render_idiom(k: int, idiom: Idiom) -> List[str]:
    params = [f"{idiom.receiver} a"]
    body = []
    value = "a"
    p = 0
    for step, call in enumerate(idiom.calls):
        args = []
        for ptype in call.params:
            params.append(f"{ptype} p{p}")
            args.append(f"p{p}")
            p += 1
        body.append(f"    {call.returns} v{step} = {value}.{call.name}({', '.join(args)});")
        value = f"v{step}"
    body.append(f"    {idiom.cast_to} r = ({idiom.cast_to}) {value};")
    body.append("    return r;")
    return [f"  public {idiom.cast_to} use{k}({', '.join(params)}) {{"] + body + ["  }"]


class IdiomFactory:
    """Draws random downcast idioms from a registry's synthetic types."""

    def __init__(self, registry: TypeRegistry, chain_length: int = 2):
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        self.chain_length = chain_length
        types = sorted(
            (t for t in registry.all_types() if str(t).startswith(SYNTH_PREFIX)),
            key=str,
        )
        #: Qualified type name -> public instance calls returning it.
        self._returning: Dict[str, List[Call]] = {}
        for t in types:
            for method in registry.declared_methods(t):
                if method.static or not method.is_public:
                    continue
                signature = (method.return_type,) + tuple(method.parameter_types)
                if not all(str(s).startswith(SYNTH_PREFIX) for s in signature):
                    continue
                self._returning.setdefault(str(method.return_type), []).append(
                    Call(
                        owner=str(t),
                        name=method.name,
                        params=tuple(str(p) for p in method.parameter_types),
                        returns=str(method.return_type),
                    )
                )
        #: (static type, proper subtype) pairs some call can produce.
        self._cast_pairs: List[Tuple[str, str]] = [
            (str(t), str(sub))
            for t in types
            if str(t) in self._returning
            for sub in sorted(registry.all_subtypes(t), key=str)
            if isinstance(sub, NamedType) and str(sub).startswith(SYNTH_PREFIX)
        ]
        if not self._cast_pairs:
            raise ValueError("no downcast idiom is possible over this registry")

    def idiom(self, rng: random.Random) -> Idiom:
        cast_from, cast_to = rng.choice(self._cast_pairs)
        chain = [rng.choice(self._returning[cast_from])]
        while len(chain) < self.chain_length:
            callers = self._returning.get(chain[0].owner)
            if not callers:
                break
            chain.insert(0, rng.choice(callers))
        return Idiom(calls=tuple(chain), cast_to=cast_to)


@dataclass
class SyntheticCorpus:
    """A mutable, seeded synthetic corpus: file specs plus its generator."""

    factory: IdiomFactory
    rng: random.Random
    casts_per_file: int
    files: List[FileSpec] = field(default_factory=list)
    next_index: int = 0
    #: Edit kinds still to draw in the current round (see ``EDIT_COUNTS``).
    deck: List[str] = field(default_factory=list)

    def texts(self) -> List[Tuple[str, str]]:
        return [(f.source, f.render()) for f in self.files]

    def idioms(self) -> List[Idiom]:
        return [i for f in self.files for i in f.idioms]

    def healthy(self) -> List[FileSpec]:
        return [f for f in self.files if not f.broken]

    def new_file(self, broken: bool = False) -> FileSpec:
        idioms = () if broken else tuple(
            self.factory.idiom(self.rng) for _ in range(self.casts_per_file)
        )
        spec = FileSpec(index=self.next_index, idioms=idioms, broken=broken)
        self.next_index += 1
        return spec


def generate_corpus(
    registry: TypeRegistry,
    files: int = 100,
    casts_per_file: int = 3,
    chain_length: int = 2,
    broken_files: int = 1,
    seed: int = 0,
) -> SyntheticCorpus:
    """Generate ``files`` healthy client files plus ``broken_files``.

    Broken files come first in corpus order, so the lenient loader's
    culprit search finds each one on its first probe.
    """
    corpus = SyntheticCorpus(
        factory=IdiomFactory(registry, chain_length),
        rng=random.Random(seed),
        casts_per_file=casts_per_file,
    )
    for _ in range(broken_files):
        corpus.files.append(corpus.new_file(broken=True))
    for _ in range(files):
        corpus.files.append(corpus.new_file())
    return corpus


# ----------------------------------------------------------------------
# Seeded corpus edits
# ----------------------------------------------------------------------

EDIT_KINDS = ("touch", "add_idiom", "drop_idiom", "add_file", "remove_file")
#: Each round of ``sum(EDIT_COUNTS)`` edits holds each kind in ``EDIT_KINDS``
#: this many times, in seeded order, so any stretch of edits has nearly
#: the same mix.
EDIT_COUNTS = (4, 2, 2, 1, 1)
#: A file is removed only while more healthy files than this remain.
MIN_FILES = 2


@dataclass(frozen=True)
class Edit:
    """One corpus edit as ``update_corpus`` arguments, plus the idioms it touched."""

    kind: str
    upserts: Tuple[Tuple[str, str], ...] = ()
    removes: Tuple[str, ...] = ()
    touched: Tuple[Idiom, ...] = ()


def next_edit(corpus: SyntheticCorpus) -> Edit:
    """Draw one edit from the corpus RNG and apply it to the specs."""
    rng = corpus.rng
    if not corpus.deck:
        corpus.deck = [k for k, n in zip(EDIT_KINDS, EDIT_COUNTS) for _ in range(n)]
        rng.shuffle(corpus.deck)
    kind = corpus.deck.pop()
    healthy = corpus.healthy()
    if kind == "remove_file" and len(healthy) <= MIN_FILES:
        kind = "add_file"
    if kind == "add_file":
        spec = corpus.new_file()
        corpus.files.append(spec)
        return Edit(kind, upserts=((spec.source, spec.render()),), touched=spec.idioms)
    victim = rng.choice(healthy)
    if kind == "remove_file":
        corpus.files.remove(victim)
        return Edit(kind, removes=(victim.source,), touched=victim.idioms)
    if kind == "drop_idiom" and len(victim.idioms) <= 1:
        kind = "add_idiom"
    if kind == "touch":
        new = replace(victim, touches=victim.touches + 1)
        touched = victim.idioms
    elif kind == "add_idiom":
        idiom = corpus.factory.idiom(rng)
        new = replace(victim, idioms=victim.idioms + (idiom,))
        touched = (idiom,)
    else:
        drop = rng.randrange(len(victim.idioms))
        new = replace(victim, idioms=victim.idioms[:drop] + victim.idioms[drop + 1:])
        touched = (victim.idioms[drop],)
    corpus.files[corpus.files.index(victim)] = new
    return Edit(kind, upserts=((new.source, new.render()),), touched=touched)
