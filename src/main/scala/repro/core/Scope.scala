package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.{col, count, first, lit, when}

import Ast._

/** AIQL's binding rule (§2.2), applied to the event patterns of one query:
  * an entity variable means its first occurrence (`p1` is shorthand for
  * `p1.exe_name`, in the role of that occurrence), and an event alias names
  * its own attributes — it wins over an entity variable of the same name.
  *
  * [[column]] maps a return or `group by` leaf to `(event alias, schema
  * column)`; each caller renders that pair its own way (the multievent
  * engine's prefixed `alias__column`, the anomaly engine's raw column, the
  * synthesized SQL's `alias.column`).
  */
final class Scope(events: Seq[EventPat]) {

  import Scope.SemanticError

  private val aliases = events.map(_.alias).toSet

  /** Each entity variable's first occurrence: (event alias, kind, role). */
  private val first: Map[String, (String, String, String)] =
    events.flatMap(e => Ast.entityOccurrences(e).map { case (v, k, r) => v -> (e.alias, k, r) })
      .distinctBy(_._1).toMap

  def column(leaf: Expr): (String, String) = leaf match {
    case VarRef(v) if aliases(v) =>
      throw SemanticError(s"bare event alias '$v' is not returnable; use $v.<attr>")
    case AttrRef(v, a) if aliases(v) => (v, Attrs.eventAttr(a))
    case VarRef(v)                   => entity(v, "")
    case AttrRef(v, a)               => entity(v, a)
    case other => throw SemanticError(s"unresolvable expression $other")
  }

  private def entity(v: String, attr: String): (String, String) = {
    val (evt, kind, role) = first.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
    (evt, Attrs.entityAttr(kind, role, attr))
  }
}

object Scope {

  final case class SemanticError(msg: String) extends RuntimeException(msg)

  /** Schema column of a leaf of entity `ent`'s filter, in `role`. */
  def filterColumn(ent: EntityPat, role: String)(leaf: Expr): String = leaf match {
    case AttrRef(v, a) if v == ent.name => Attrs.entityAttr(ent.kind, role, a)
    case AttrRef(v, a) =>
      throw PatternCompiler.CompileError(s"filter of '${ent.name}' references '$v.$a'")
    case other => throw PatternCompiler.CompileError(s"unsupported filter leaf $other")
  }

  /** The leaves of `e` that read an input column; `count(evt)` reads none. */
  def leaves(e: Expr): Seq[Expr] = e match {
    case NumLit(_) | StrLit(_)   => Nil
    case Bin(_, l, r)            => leaves(l) ++ leaves(r)
    case Not(x)                  => leaves(x)
    case Agg("count", VarRef(_)) => Nil
    case Agg(_, a)               => leaves(a)
    case leaf                    => Seq(leaf)
  }

  /** The output of a query's `return` / `group by` / `having`, validated:
    * the group keys, the aggregate return items and all return items, each
    * with its output name, and the `having` filter, whose leaves name a key
    * or an aggregate (or, in an anomaly query, an aggregate `k` windows
    * earlier: `amt[k]`). A query without aggregates is not grouped, and
    * may have neither `group by` nor `having`.
    */
  final case class Shape(keys: Seq[(String, Expr)], aggs: Seq[(String, Expr)],
                         returns: Seq[(String, Expr)], having: Option[Expr]) {

    /** The output name and the key or aggregate expression that a `having`
      * leaf other than `amt[k]` names.
      */
    def item(leaf: Expr): (String, Expr) = leaf match {
      case VarRef(v) => (aggs ++ keys).find(_._1 == v).getOrElse(
        throw SemanticError(s"'$v' in having is neither an aggregate nor a group key"))
      case other => throw SemanticError(s"unresolvable having leaf $other")
    }
  }

  def shape(q: MultiEventQuery): Shape = shape(q.returns, q.groupBy, q.having, anomaly = false)

  def shape(q: AnomalyQuery): Shape = shape(q.returns, q.groupBy, q.having, anomaly = true)

  private def shape(returns: Seq[ReturnItem], groupBy: Seq[Expr], having: Option[Expr],
                    anomaly: Boolean): Shape = {
    val aggs = returns.collect {
      case ReturnItem(e, al) if ExprEval.hasAgg(e) => (al.getOrElse(defaultAlias(e)), e)
    }
    if (anomaly && aggs.isEmpty) throw SemanticError("anomaly query requires an aggregate in return")
    val named = returns.map { r =>
      val name =
        if (aggs.isEmpty || ExprEval.hasAgg(r.expr)) r.alias.getOrElse(defaultAlias(r.expr))
        else if (groupBy.contains(r.expr)) keyName(returns, r.expr)
        else throw SemanticError(s"return item ${r.expr} is neither aggregated nor grouped")
      (name, r.expr)
    }
    val out = Shape(groupBy.map(g => (keyName(returns, g), g)), aggs, named, having)
    def check(e: Expr): Unit = e match {
      case Bin(_, l, r)          => check(l); check(r)
      case Not(x)                => check(x)
      case NumLit(_) | StrLit(_) =>
      case HistRef(a, k) if !anomaly =>
        throw SemanticError(s"history reference '$a[$k]' needs an anomaly query")
      case HistRef(a, k) if !aggs.exists(_._1 == a) =>
        throw SemanticError(s"history reference '$a[$k]' does not match an aggregate alias")
      case HistRef(_, _)         =>
      case leaf                  => out.item(leaf)
    }
    if (groupBy.nonEmpty && aggs.isEmpty) throw SemanticError("'group by' needs an aggregate in return")
    for (h <- having) {
      if (aggs.isEmpty) throw SemanticError("'having' needs an aggregate in return")
      check(h)
    }
    out
  }

  /** Render `out` over `df`, whose leaves `leaf` binds — the one projection
    * of both engines. Without aggregates it selects the `return` items.
    * With them it groups by the `window` column (when given) and the keys,
    * then filters by `having`, where `amt[k]` is the same group's `amt` in
    * window `win − k`: a range frame, so a missing window (or a NULL key,
    * which equals nothing) reads NULL, as the SQL's left join does. The
    * output is the `window` column, if any, then the `return` items.
    */
  def project(df: DataFrame, out: Shape, leaf: Expr => Column,
              window: Option[String] = None): DataFrame =
    if (out.aggs.isEmpty)
      df.select(out.returns.map { case (n, e) => ExprEval.toColumn(e, leaf).as(n) }: _*)
    else {
      val keys = out.keys.map { case (n, g) => ExprEval.toColumn(g, leaf).as(n) }
      val aggs = out.aggs.map { case (n, e) => aggColumnOf(e, leaf).as(n) }
      val grouped = df.groupBy(window.map(col) ++: keys: _*).agg(aggs.head, aggs.tail: _*)
      val keyCols = out.keys.map(kc => col(kc._1))
      val known = keyCols.map(_.isNotNull).foldLeft(lit(true))(_ && _)
      // Spark evaluates no window function inside a filter: add each
      // history column first
      val hists = for (h <- out.having.toSeq; (a, k) <- Ast.collectHists(h).distinct; w <- window)
        yield when(known, first(col(a)).over(
          Window.partitionBy(keyCols: _*).orderBy(col(w)).rangeBetween(-k, -k))).as(s"${a}__$k")
      out.having.fold(grouped)(h => grouped.select(col("*") +: hists: _*).filter(ExprEval.toColumn(h, {
        case HistRef(a, k) => col(s"${a}__$k")
        case l             => col(out.item(l)._1)
      }))).select((window ++: out.returns.map(_._1)).map(col): _*)
    }

  /** Default output-column names for unaliased return items — the engines
    * and [[SqlSynthesizer]] must agree exactly so results are diffable.
    */
  def defaultAlias(e: Expr): String = e match {
    case VarRef(v)     => v
    case AttrRef(v, a) => s"${v}_$a"
    case Agg(f, arg)   => s"${f}_${defaultAlias(arg)}"
    case _             => "expr"
  }

  /** Output name of a `group by` key: the alias of the return item it
    * matches, else its default alias.
    */
  def keyName(returns: Seq[ReturnItem], g: Expr): String =
    returns.find(_.expr == g).flatMap(_.alias).getOrElse(defaultAlias(g))

  /** Spark aggregate of an aggregate return item; `count(evt)` counts rows. */
  private def aggColumnOf(e: Expr, resolve: Expr => Column): Column = e match {
    case Agg("count", VarRef(_)) => count(lit(1))
    case Agg(f, arg)             => ExprEval.aggColumn(f, ExprEval.toColumn(arg, resolve))
    case other => throw SemanticError(s"expected aggregate, got $other")
  }
}
