"""Independent reference implementations used to check the library.

Everything here is deliberately plain Python (dicts, math.log2,
exhaustive loops) and shares no code with the package: direct-summation
entropy and mutual information over explicit cell maps, full sign
enumeration for the signed-rank test, and brute-force pair counting.
The one exception is the null-model reference, which must draw the same
random streams as the package and so runs its per-replicate primitives.

The package itself needs only numpy; scipy is a test dependency and
serves here as the reference for the least-squares line and for
midranks.

The object parsers at the end are the record-by-record ingestion the
array parsers replaced: each record becomes a ``Publication`` and the
rules run on those objects.  They use only the package's record and
report types and the vocabulary's lookups; like the package, they skip
one UTF-8 byte order mark at the start of a file.
``load_mesh_ascii_lines`` is the NLM ASCII loader the block reader
replaced, which splits the whole file into lines.  Likewise the synthetic
corpus reference builds one ``Publication`` per row and draws each
row's descriptor picks with its own ``rng.choice`` call, and the
canonical writer reference hands each row to ``json.JSONEncoder``.
"""

import json
import math
import re
from itertools import product

import numpy as np
from scipy.stats import linregress, rankdata


def entropy_direct(cells):
    return -sum(p * math.log2(p) for p in cells.values() if p > 0)


def marginal_direct(cells, axes):
    out = {}
    for key, p in cells.items():
        sub = tuple(key[a] for a in axes)
        out[sub] = out.get(sub, 0.0) + p
    return out


def mi2_direct(cells):
    hx = entropy_direct(marginal_direct(cells, (0,)))
    hy = entropy_direct(marginal_direct(cells, (1,)))
    return hx + hy - entropy_direct(cells)


def mi3_direct(cells):
    h1 = entropy_direct(marginal_direct(cells, (0,)))
    h2 = entropy_direct(marginal_direct(cells, (1,)))
    h3 = entropy_direct(marginal_direct(cells, (2,)))
    h12 = entropy_direct(marginal_direct(cells, (0, 1)))
    h13 = entropy_direct(marginal_direct(cells, (0, 2)))
    h23 = entropy_direct(marginal_direct(cells, (1, 2)))
    return h1 + h2 + h3 - h12 - h13 - h23 + entropy_direct(cells)


def midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        mid = (i + j + 1) / 2.0  # average of 1-based positions i+1 .. j
        for k in range(i, j):
            ranks[order[k]] = mid
        i = j
    return ranks


def midranks_scipy(values):
    """Average-method ranks from ``scipy.stats.rankdata``."""
    return rankdata(values)


def ols_loglog_scipy(x, y):
    """Slope, intercept, slope standard error and r^2 of
    ``scipy.stats.linregress`` on log10 x and log10 y."""
    fit = linregress(np.log10(x), np.log10(y))
    return fit.slope, fit.intercept, fit.stderr, fit.rvalue**2


def wilcoxon_enumerate(x, y):
    """Exhaustive signed-rank test: every sign assignment of the nonzero
    differences is equally likely under the null."""
    d = [a - b for a, b in zip(x, y) if a != b]
    n = len(d)
    if n == 0:
        return 0.0, 1.0, 0
    ranks = midranks([abs(v) for v in d])
    total = sum(ranks)
    w_plus = sum(r for v, r in zip(d, ranks) if v > 0)
    w_minus = sum(r for v, r in zip(d, ranks) if v < 0)
    statistic = abs(w_plus - w_minus)
    observed_dev = abs(2 * w_plus - total)
    extreme = 0
    for signs in product((0, 1), repeat=n):
        wp = sum(r for s, r in zip(signs, ranks) if s)
        if abs(2 * wp - total) >= observed_dev - 1e-9:
            extreme += 1
    return statistic, extreme / 2**n, n


def pair_counts_brute(corpus, branch_a, branch_b, window):
    """Count, for every descriptor pair, the publications carrying both."""
    lo, hi = window
    counts = {}
    for pub in corpus.publications:
        if not lo <= pub.year <= hi:
            continue
        for a in pub.mesh_ids:
            if branch_a not in corpus.vocabulary.descriptors[a].branches:
                continue
            for b in pub.mesh_ids:
                if b == a:
                    continue
                if branch_b not in corpus.vocabulary.descriptors[b].branches:
                    continue
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def top_pairs_brute(corpus, branch_a, branch_b, window, limit):
    """The ``limit`` most frequent ((id_a, id_b), count) pairs by (-count,
    id_a, id_b): each publication in the window adds one to every pair of
    its set of branch-a ids and its set of branch-b ids, except an id with
    itself."""
    lo, hi = window
    descriptors = corpus.vocabulary.descriptors
    counts = {}
    for pub in corpus.publications:
        if not lo <= pub.year <= hi:
            continue
        side_a = {m for m in pub.mesh_ids if branch_a in descriptors[m].branches}
        side_b = {m for m in pub.mesh_ids if branch_b in descriptors[m].branches}
        for pair in product(side_a, side_b):
            if pair[0] != pair[1]:
                counts[pair] = counts.get(pair, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]


def descriptor_counts_brute(corpus, year=None):
    """Publications per descriptor id, over all years or one year."""
    counts = {}
    for pub in corpus.publications:
        if year is None or pub.year == year:
            for uid in pub.mesh_ids:
                counts[uid] = counts.get(uid, 0) + 1
    return counts


def rank_table_brute(corpus, year=None):
    """(rank, id, count) rows by descending count, ties broken by id."""
    ordered = sorted(
        descriptor_counts_brute(corpus, year).items(), key=lambda kv: (-kv[1], kv[0])
    )
    return [(rank, uid, c) for rank, (uid, c) in enumerate(ordered, start=1)]


def sextile_brute(rank, k):
    """Band 1..6 of a rank in 1..k; the k % 6 leading bands hold one extra rank."""
    q, rem = divmod(k, 6)
    upper = 0
    for band in range(6):
        upper += q + (1 if band < rem else 0)
        if rank <= upper:
            return band + 1
    raise ValueError(f"rank {rank} outside 1..{k}")


def trajectory_cells_brute(corpus, k):
    """The all-years top-k ids and a {(id, year): code} map: -2 absent
    that year, -1 ranked beyond k, else the sextile of the yearly rank."""
    years = sorted({pub.year for pub in corpus.publications})
    top = [uid for _, uid, _ in rank_table_brute(corpus)[:k]]
    cells = {}
    for year in years:
        ranks = {uid: rank for rank, uid, _ in rank_table_brute(corpus, year)}
        for uid in top:
            rank = ranks.get(uid)
            if rank is None:
                cells[(uid, year)] = -2
            elif rank > len(top):
                cells[(uid, year)] = -1
            else:
                cells[(uid, year)] = sextile_brute(rank, len(top))
    return top, cells


def entries_brute(corpus, k):
    """(id, birth year, impact, primary branch) for every top-k descriptor
    first used after the corpus's first year."""
    years = sorted({pub.year for pub in corpus.publications})
    top = [uid for _, uid, _ in rank_table_brute(corpus)[:k]]
    yearly = {y: descriptor_counts_brute(corpus, y) for y in years}
    out = []
    for uid in top:
        birth = min(y for y in years if yearly[y].get(uid, 0) > 0)
        if birth == years[0]:
            continue
        own = sum(yearly[y].get(uid, 0) for y in years if y >= birth)
        mass = sum(yearly[y].get(t, 0) for y in years if y >= birth for t in top)
        primary = corpus.vocabulary.descriptors[uid].primary_branch
        out.append((uid, birth, own / mass, primary))
    return sorted(out, key=lambda e: (e[1], -e[2], e[0]))


def branch_shares_brute(corpus, counting):
    """(year, share C, share D, share E) of C/D/E descriptor occurrences;
    shares are None in a year with no C/D/E occurrence."""
    totals = {}
    for pub in corpus.publications:
        row = totals.setdefault(pub.year, [0, 0, 0])
        for uid in pub.mesh_ids:
            d = corpus.vocabulary.descriptors[uid]
            if counting == "membership":
                homes = {t.raw[0] for t in d.tree_numbers}
            else:
                homes = {d.primary_branch}
            for i, alpha in enumerate("CDE"):
                if alpha in homes:
                    row[i] += 1
    out = []
    for year in sorted(totals):
        denom = sum(totals[year])
        if denom == 0:
            out.append((year, None, None, None))
        else:
            out.append((year, *(n / denom for n in totals[year])))
    return out


def null_values_loop(triples_per_year, config):
    """(4, replicates, years) targets of the shuffling null over every year
    of ``triples_per_year``, one replicate at a time: shuffle every year of
    the replicate in ascending order, then take the yearly series of the
    shuffled corpus under the observed corpus' pooled medians; NaN for a
    year the replicate's series lacks."""
    from helixmi.counts import pooled_branch_stats
    from helixmi.infotheory import mi_from_triples
    from helixmi.nullmodel import TARGETS, replicate_rng, shuffle_year

    years = sorted(triples_per_year)
    medians = pooled_branch_stats(triples_per_year) if config.map_kind == "median" else None
    values = np.full((len(TARGETS), config.replicates, len(years)), np.nan)
    for r in range(config.replicates):
        rng = replicate_rng(config.seed, r)
        shuffled = {y: shuffle_year(triples_per_year[y], rng) for y in sorted(triples_per_year)}
        series = mi_from_triples(shuffled, map_kind=config.map_kind, medians=medians,
                                 include_empty=config.include_empty)
        for record in series.records:
            for t, target in enumerate(TARGETS):
                values[t, r, years.index(record.year)] = record.target(target)
    return values


# ---------------------------------------------------------------------------
# Object parsers
# ---------------------------------------------------------------------------

def _resolve_terms(tokens, vocabulary, report):
    ids = set()
    for token in tokens:
        rid = vocabulary.resolve(token)
        if rid is None:
            report.unresolved_terms[token] += 1
        else:
            ids.add(rid)
    return tuple(sorted(ids))


def _admit(pub_id, year, mesh_ids, year_range, seen, out, report):
    from helixmi.corpus import Publication

    if pub_id in seen:
        report.excluded_duplicate += 1
        return
    if year_range is not None and not (year_range[0] <= year <= year_range[1]):
        report.excluded_year += 1
        return
    if not mesh_ids:
        report.excluded_no_mesh += 1
        return
    seen.add(pub_id)
    out.append(Publication(id=pub_id, year=year, mesh_ids=mesh_ids))


def _in_corpus_order(publications):
    return tuple(sorted(publications, key=lambda p: (p.year, p.id)))


def ingest_jsonl_objects(path, vocabulary, year_range=None):
    """(publications in (year, id) order, report) of a JSONL corpus: each
    line of ``bytes.splitlines`` (LF, CRLF or CR) decoded as UTF-8 and,
    with one LF for its line end as text mode reads it, parsed by
    ``json.loads``."""
    from helixmi.corpus import CorpusFormatError, IngestReport

    report = IngestReport()
    out = []
    seen = set()
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
        body = raw.rstrip(b"\r\n")
        try:
            line = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: not UTF-8 text ({exc})") from None
        if not line.strip():
            continue
        if body != raw:
            line += "\n"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from None
        try:
            pub_id = str(obj["id"])
            year = int(obj["year"])
            if not -(2**63) <= year < 2**63:
                raise ValueError(f"year {year} out of range")
            mesh_field = obj["mesh"]
            if not isinstance(mesh_field, list):
                raise TypeError("mesh must be a list")
            tokens = [str(t) for t in mesh_field]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise CorpusFormatError(
                f"{path}: line {lineno}: bad record ({exc})"
            ) from None
        mesh_ids = _resolve_terms(tokens, vocabulary, report)
        _admit(pub_id, year, mesh_ids, year_range, seen, out, report)
    return _in_corpus_order(out), report


_YEAR_RE = re.compile(r"\d{4}")


def _clean_mesh_value(value):
    value = value.lstrip("*")
    return value.split("/", 1)[0].strip()


def ingest_medline_objects(path, vocabulary, year_range=None):
    """(publications in (year, id) order, report) of a MEDLINE text corpus:
    the lines of a record are gathered as (tag, value) fields and read
    when the record ends."""
    from helixmi.corpus import IngestReport

    report = IngestReport()
    out = []
    seen = set()

    def finish(fields):
        if not fields:
            return
        pub_id = None
        year = None
        tokens = []
        for tag, value in fields:
            if tag == "PMID" and pub_id is None:
                pub_id = value.strip()
            elif tag == "DP" and year is None:
                m = _YEAR_RE.search(value)
                if m:
                    year = int(m.group())
            elif tag == "MH":
                cleaned = _clean_mesh_value(value)
                if cleaned:
                    tokens.append(cleaned)
        if not pub_id or year is None:
            report.skipped_malformed += 1
            return
        mesh_ids = _resolve_terms(tokens, vocabulary, report)
        _admit(pub_id, year, mesh_ids, year_range, seen, out, report)

    fields = []
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if not line.strip():
                finish(fields)
                fields = []
            elif line.startswith("      ") and fields:
                tag, value = fields[-1]
                fields[-1] = (tag, value + " " + line.strip())
            elif len(line) >= 6 and line[4:6] == "- ":
                fields.append((line[:4].strip(), line[6:]))
    finish(fields)
    return _in_corpus_order(out), report


def load_mesh_ascii_lines(path):
    """The vocabulary of an NLM ASCII file read whole and split with
    ``bytes.splitlines`` (LF, CRLF or CR), each line decoded as UTF-8 or
    else as latin-1 and parsed by ``str.partition``; a record's byte offset
    counts from the file's first byte, and a byte order mark is not
    skipped."""
    from helixmi.mesh import MeshFormatError, Vocabulary, _check_tree_numbers

    with open(path, "rb") as fh:
        data = fh.read()
    ids, names, counts, codes = [], [], [], []
    skipped = 0
    record = {"offset": 0, "name": None, "uid": None, "trees": [], "open": False}

    def finish():
        nonlocal skipped
        if not record["trees"]:
            skipped += record["open"]
        elif record["name"] is None or record["uid"] is None:
            _check_tree_numbers(codes)
            missing = "MH" if record["name"] is None else "UI"
            raise MeshFormatError(f"{path}: malformed record at byte {record['offset']}: "
                                  f"missing '{missing} =' field")
        else:
            ids.append(record["uid"])
            names.append(record["name"])
            counts.append(len(record["trees"]))
            codes.extend(record["trees"])
        record.update(name=None, uid=None, trees=[])

    offset = 0
    for raw in data.splitlines(keepends=True):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            line = raw.decode("latin-1")
        line = line.rstrip("\r\n")
        if line == "*NEWRECORD":
            finish()
            record.update(open=True, offset=offset)
        else:
            key, sep, value = line.partition(" = ")
            if sep and key == "MH":
                record["name"] = value.strip()
            elif sep and key == "MN":
                record["trees"].append(value.strip())
            elif sep and key == "UI":
                record["uid"] = value.strip()
        offset += len(raw)
    finish()
    return Vocabulary.from_columns(ids, names, counts, codes, skipped_no_tree=skipped)


def csr_of(publications, vocabulary):
    """Ids, years, indptr and indices of publications, one walk over them;
    an id missing from the vocabulary raises KeyError."""
    def column(uid):
        j = vocabulary.column(uid)
        if j is None:
            raise KeyError(uid)
        return j

    indptr = [0]
    indices = []
    for p in publications:
        indices.extend(map(column, p.mesh_ids))
        indptr.append(len(indices))
    return [p.id for p in publications], [p.year for p in publications], indptr, indices


def canonical_bytes_of(publications):
    """Sorted-key compact JSONL of publications, one line each."""
    return "".join(
        json.dumps({"id": p.id, "year": p.year, "mesh": list(p.mesh_ids)},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for p in publications
    ).encode("utf-8")


def canonical_lines_encoder(corpus):
    """The canonical lines of a corpus, each row a dict passed to one
    ``json.JSONEncoder(sort_keys=True, separators=(",", ":"))``."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for p in corpus.publications:
        row = {"id": p.id, "year": p.year, "mesh": list(p.mesh_ids)}
        yield (encode(row) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

def synth_corpus_objects(config):
    """The synthetic corpus built one ``Publication`` at a time, with one
    ``rng.choice`` per (publication, branch) for the descriptor picks."""
    from helixmi.corpus import Corpus, Publication
    from helixmi.counts import BRANCHES
    from helixmi.synth import FILLER_ID, synth_triples, synth_vocabulary

    per_year = synth_triples(config)
    pool_sizes = {
        alpha: max(int(max(t[:, i].max() for t in per_year.values())), 1)
        for i, alpha in enumerate(BRANCHES)
    }
    vocabulary = synth_vocabulary(pool_sizes)
    pools = {
        alpha: [f"{alpha}{i:06d}" for i in range(pool_sizes[alpha])]
        for alpha in BRANCHES
    }
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    publications = []
    serial = 0
    for year in sorted(per_year):
        for triple in per_year[year]:
            mesh_ids = [FILLER_ID]
            for i, alpha in enumerate(BRANCHES):
                count = int(triple[i])
                if count:
                    picks = rng.choice(len(pools[alpha]), size=count, replace=False)
                    mesh_ids.extend(pools[alpha][j] for j in sorted(picks))
            publications.append(
                Publication(
                    id=f"S{serial:08d}", year=year, mesh_ids=tuple(sorted(mesh_ids))
                )
            )
            serial += 1
    label = f"synthetic-{config.mode}-seed{config.seed}"
    return Corpus.from_arrays(label, vocabulary, *csr_of(publications, vocabulary))
