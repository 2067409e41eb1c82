"""Command-line interface: train, predict, eval, sweep, stats.

Exit codes: 0 success, 1 usage or data errors, 2 numeric failure
(training divergence). Each output path is checked before any input is
read, and output artifacts are written atomically, so a failed run never
leaves a partial file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import clstm, metrics, ngram
from .corpus import build_charset, check_charset_cap, compute_stats, read_lines, read_tsv
from .errors import DivergenceError, LidentError
from .ngram import NgramConfig
from .serialization import atomic_write_text, peek_magic


class UsageError(LidentError):
    """Bad flag combination or value, reported as exit code 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lident",
        description="Train and evaluate similar-language identifiers on text<TAB>label corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_train = sub.add_parser("train", help="train an n-gram model or conv+BiLSTM classifier")
    p_train.add_argument("--kind", choices=("ngram", "clstm"), required=True, help="model family to train")
    p_train.add_argument("--train", required=True, metavar="TSV", help="training corpus (text<TAB>label)")
    p_train.add_argument("--out", required=True, metavar="FILE", help="output model file")
    p_train.add_argument("--dev", metavar="TSV", help="development corpus (clstm: best-epoch selection)")
    p_train.add_argument("--n", type=int, help=f"ngram: model order in characters (default {NgramConfig.n})")
    p_train.add_argument("--alpha", type=float, help=f"ngram: additive smoothing mass (default {NgramConfig.alpha})")
    p_train.add_argument("--max-charset", type=int, help="cap on charset size, unknown slot included")
    p_train.add_argument("--seq-len", type=int, help="clstm: input length in characters")
    p_train.add_argument("--conv-features", type=int, help="clstm: filters per conv stage")
    p_train.add_argument("--kernels", type=int_list, dest="conv_kernels", metavar="K,K,K",
                         help="clstm: conv kernel widths")
    p_train.add_argument("--pools", type=int_list, metavar="P,P,P", help="clstm: max-pooling window sizes")
    p_train.add_argument("--lstm-hidden", type=int, help="clstm: hidden units per direction")
    p_train.add_argument("--dense-units", type=int, help="clstm: fully connected layer width")
    p_train.add_argument("--dropout", type=float, dest="dropout_rate", metavar="DROPOUT",
                         help="clstm: dropout rate before the output layer")
    p_train.add_argument("--lr", type=float, help="clstm: Adam learning rate")
    p_train.add_argument("--epochs", type=int, help="clstm: training epochs")
    p_train.add_argument("--batch-size", type=int, help="clstm: mini-batch size")
    p_train.add_argument("--history", metavar="CSV", help="clstm: write per-epoch loss/accuracy CSV")
    p_train.add_argument("--seed", type=int, help=f"clstm: RNG seed (default {clstm.ClstmConfig.seed})")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="label raw text lines with a trained model")
    p_predict.add_argument("--model", required=True, metavar="FILE", help="model file from `lident train`")
    p_predict.add_argument("--input", metavar="FILE", help="raw input, one text per line")
    p_predict.add_argument("--scores", action="store_true", help="also emit per-label log-scores as TSV")
    p_predict.add_argument("--dump", action="store_true", help="print a summary of the model as JSON and exit")
    p_predict.add_argument("--out", metavar="FILE", help="write predictions here instead of stdout")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.add_argument("--model", metavar="FILE", help="model file to evaluate")
    p_eval.add_argument("--gold", metavar="TSV", help="gold corpus (text<TAB>label)")
    p_eval.add_argument("--from-matrix", metavar="CSV", help="score a stored confusion matrix directly")
    p_eval.add_argument("--groups", metavar="TSV", help="label<TAB>group_id assignments")
    p_eval.add_argument("--format", choices=("text", "json", "csv"), default="text", help="report format")
    p_eval.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train one n-gram model per order and report dev accuracy")
    p_sweep.add_argument("--train", required=True, metavar="TSV", help="training corpus")
    p_sweep.add_argument("--dev", required=True, metavar="TSV", help="development corpus")
    p_sweep.add_argument("--n-min", type=int, required=True, help="smallest order to try")
    p_sweep.add_argument("--n-max", type=int, required=True, help="largest order to try")
    p_sweep.add_argument("--alpha", type=float, default=NgramConfig.alpha, help="additive smoothing mass")
    p_sweep.add_argument("--max-charset", type=int, help="cap on charset size, unknown slot included")
    p_sweep.add_argument("--out", metavar="CSV", help="write the sweep CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_stats = sub.add_parser("stats", help="per-label instance counts and length averages")
    p_stats.add_argument("--input", required=True, metavar="TSV", help="corpus to summarize")
    p_stats.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; remap usage to 1.
        return 0 if exc.code == 0 else 1
    try:
        for out in (getattr(args, "out", None), getattr(args, "history", None)):
            if out is not None:
                _require_out_path(out)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LidentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError names nothing.
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} {path!r} does not exist or is not a file")
    return p


def _require_out_path(path: str) -> None:
    """Reject an output file whose directory is missing, or that is a directory."""
    p = Path(path)
    if not p.parent.is_dir():
        raise UsageError(f"output directory {str(p.parent)!r} does not exist")
    if p.is_dir():
        raise UsageError(f"output {path!r} is a directory")


def _emit(out: str | None, document: str) -> None:
    """Write `document` to the file `out`, or to stdout without one."""
    if not out:
        sys.stdout.write(document)
        return
    atomic_write_text(out, document)


# Each clstm config field but charset_dim (from --max-charset) is the dest of its flag.
_CLSTM_FIELDS = {f.name for f in dataclasses.fields(clstm.ClstmConfig)}


def int_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers, as --kernels and --pools take them."""
    return tuple(int(part) for part in raw.split(","))


def cmd_train(args: argparse.Namespace) -> int:
    ngram_flags = {"n": args.n, "alpha": args.alpha}
    clstm_flags = {key: value for key, value in vars(args).items() if key in _CLSTM_FIELDS or key in ("history", "dev")}
    other_flags = clstm_flags if args.kind == "ngram" else ngram_flags
    wrong = [k for k, v in other_flags.items() if v is not None]
    if wrong:
        raise UsageError(f"flags not valid with --kind {args.kind}: {', '.join(sorted(wrong))}")

    train_path = _require_file(args.train, "training corpus")
    if args.kind == "ngram":
        config = NgramConfig(**{k: v for k, v in ngram_flags.items() if v is not None})
        check_charset_cap(args.max_charset)
    else:
        options = {k: v for k, v in clstm_flags.items() if k in _CLSTM_FIELDS and v is not None}
        if args.max_charset is not None:
            options["charset_dim"] = args.max_charset
        config = clstm.ClstmConfig(**options)
    started = time.monotonic()
    corpus = read_tsv(train_path)

    if args.kind == "ngram":
        charset = build_charset(corpus, args.max_charset)
        model = ngram.train(corpus, config, charset)
        model.save(args.out)
        size = f"{model.table_entries()} count entries"
    else:
        dev = read_tsv(_require_file(args.dev, "dev corpus")) if args.dev else None
        model, history = clstm.train(corpus, dev, config)
        clstm.save_checkpoint(model, args.out)
        if args.history:
            lines = ["epoch,train_loss,dev_accuracy"]
            lines += [f"{h.epoch},{h.train_loss:.6f},{h.dev_accuracy:.6f}" for h in history]
            atomic_write_text(args.history, "\n".join(lines) + "\n")
        size = f"{sum(p.size for p in model.params.values())} parameters"

    elapsed = time.monotonic() - started
    print(
        f"trained {args.kind}: {len(corpus.labels)} labels, {len(corpus)} instances, "
        f"{size}, {elapsed:.2f}s -> {args.out}"
    )
    return 0


def _load_any_model(path: str):
    """Dispatch on the container magic: an n-gram or clstm model, both with `classify_many` and `to_json_dict`."""
    magic = peek_magic(_require_file(path, "model file"))
    if magic == ngram.MAGIC:
        return ngram.load(path)
    if magic == clstm.MAGIC:
        return clstm.load_checkpoint(path)
    raise UsageError(f"{path!r} is not a recognized model file (magic {magic!r})")


def cmd_predict(args: argparse.Namespace) -> int:
    wrong = [flag for flag, value in (("--input", args.input), ("--scores", args.scores)) if value]
    if args.dump and wrong:
        raise UsageError(f"flags not valid with --dump: {', '.join(wrong)}")
    model = _load_any_model(args.model)
    if args.dump:
        _emit(args.out, json.dumps(model.to_json_dict(), indent=2) + "\n")
        return 0
    if not args.input:
        raise UsageError("predict needs --input (or --dump)")
    texts = read_lines(_require_file(args.input, "input file"))
    scores = model.classify_many(texts)
    labels = model.labels
    out_lines = []
    for s in scores:
        if args.scores:
            out_lines.append(
                s.best.code + "\t" + "\t".join(f"{s.per_label[label]:.6f}" for label in labels)
            )
        else:
            out_lines.append(s.best.code)
    document = "\n".join(out_lines) + ("\n" if out_lines else "")
    _emit(args.out, document)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if bool(args.from_matrix) == bool(args.model):
        raise UsageError("eval needs exactly one of --model or --from-matrix")
    if args.from_matrix:
        cm = metrics.load_matrix_csv(_require_file(args.from_matrix, "matrix file"))
    else:
        if not args.gold:
            raise UsageError("eval --model needs --gold")
        model = _load_any_model(args.model)
        gold_corpus = read_tsv(_require_file(args.gold, "gold corpus"))
        model_labels = set(model.labels)
        for label in gold_corpus.labels:
            if label not in model_labels:
                raise UsageError(f"gold label {label.code!r} is not known to the model")
        texts = [inst.text for inst in gold_corpus]
        predictions = [s.best for s in model.classify_many(texts)]
        gold = [inst.label for inst in gold_corpus]
        cm = metrics.confusion(gold, predictions, labels=model.labels)
    if args.groups:
        cm = cm.with_groups(metrics.load_groups_tsv(_require_file(args.groups, "groups file")))
    _emit(args.out, metrics.render(cm, args.format))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    NgramConfig(args.n_max, args.alpha).check_orders(args.n_min)
    check_charset_cap(args.max_charset)
    train_corpus = read_tsv(_require_file(args.train, "training corpus"))
    dev_corpus = read_tsv(_require_file(args.dev, "dev corpus"))
    charset = build_charset(train_corpus, args.max_charset)
    points = ngram.sweep(train_corpus, dev_corpus, args.n_min, args.n_max, args.alpha, charset)
    lines = ["n,accuracy,model_table_entries,peak_memory_estimate"]
    lines += [f"{p.n},{p.accuracy:.6f},{p.table_entries},{p.table_bytes}" for p in points]
    document = "\n".join(lines) + "\n"
    _emit(args.out, document)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = read_tsv(_require_file(args.input, "corpus"))
    rows = compute_stats(corpus)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
        return 0
    label_w = max(len(r.label) for r in rows)
    count_w = max(len(str(r.count)) for r in rows)
    print(f"{'label'.ljust(label_w)}  {'count'.rjust(count_w)}  avg_chars  avg_tokens")
    for r in rows:
        print(f"{r.label.ljust(label_w)}  {str(r.count).rjust(count_w)}  {r.avg_chars:9.2f}  {r.avg_tokens:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
