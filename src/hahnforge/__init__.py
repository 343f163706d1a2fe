"""hahnforge: exact constructions around semicontinuous envelope pairs.

Subsystems:

* :mod:`hahnforge.plalg` - exact piecewise-linear function algebra on [0, 1];
* :mod:`hahnforge.spaces` - ordinal compacta, Cantor-Bendixson rank and the
  dyadic partition ``Pow2OddSet`` of N;
* :mod:`hahnforge.alphat` - function algebra on one-point compactifications of
  (possibly uncountable) discrete spaces;
* :mod:`hahnforge.pairs` - envelope pairs of finite continuous families;
* :mod:`hahnforge.sections` - extremal sections of separately continuous
  functions with convergent-tail structure, with a brute-force twin;
* :mod:`hahnforge.builder` - synthesis of a separately continuous function on
  [0, 1] x alphaN whose extremal sections are a prescribed envelope pair;
* :mod:`hahnforge.specdsl` / :mod:`hahnforge.cli` - the input DSL and the
  command-line front end;
* :mod:`hahnforge.record` - ``@record``, which makes the value classes of the
  other modules frozen records without ``dataclasses``, so that importing the
  package generates no code.
"""

from .rational import rat, rat_str

__all__ = ["rat", "rat_str"]
