package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import Ast._
import repro.events.{EventSchema, EventStore}

/** Engine configuration — each flag is one of the paper's domain-specific
  * optimizations, individually toggleable for the ablation bench (T3).
  *
  * @param selectivityOrdering execute the most selective pattern first
  *                            (§2.3 insight 1: prioritize pruning power)
  * @param exactSelectivity    measure pruning power by counting each
  *                            pattern's (cached) filtered scan; otherwise a
  *                            static heuristic over the predicate shape
  * @param timeBoundPushdown   tighten later scans with dynamic ts bounds
  *                            derived from `before`/`after` chains
  * @param partitionPruning    prune `(agent_id, day)` store partitions from
  *                            the global constraints
  */
final case class AiqlConf(
    selectivityOrdering: Boolean = true,
    exactSelectivity: Boolean = true,
    timeBoundPushdown: Boolean = true,
    partitionPruning: Boolean = true,
    /** Dynamic ts-bound tightening costs one small aggregation job; it only
      * pays off when the pattern it would prune is large. The engine applies
      * it when the pattern's measured count exceeds this threshold — a
      * stats-informed scheduling decision like the paper's.
      */
    pushdownThreshold: Long = 100000,
    /** The paper's engine materializes small per-pattern results and probes
      * them instead of shuffling; the Spark analog is a broadcast-hash join.
      * Pattern frames whose measured count is at or below this threshold are
      * broadcast into the staged join (set < 0 to disable; the naive SQL
      * comparator has no stats and keeps default shuffle joins).
      */
    broadcastThreshold: Long = 200000,
)

/** Where the engine reads events from. */
sealed trait EventSource
/** The partitioned Parquet store ([[EventStore]]) — enables pruning. */
final case class StorePath(path: String) extends EventSource
/** An in-memory frame (tests). */
final case class InMemory(df: DataFrame) extends EventSource

/** Loads the base events for a query's global constraints, with partition
  * pruning and a hot-partition cache: the paper's store keeps the
  * partitions under investigation in memory (in-memory indexes /
  * hypertable); here each `(agent_id, day)` store partition an agent-bound
  * query touches is pinned on first use, and the query's footprint is the
  * union of its partitions' pins. Overlapping footprints (a host-scoped
  * query, then a multi-agent one on the same day) therefore share one copy,
  * reused by the statistics pass, every pattern scan, and later queries.
  * One loader serves all engines of an [[Aiql]]. Release with [[close]].
  */
private[repro] final class BaseLoader(
    spark: SparkSession, source: EventSource, conf: AiqlConf) {

  private val pins = scala.collection.mutable.Map[(Int, String), (DataFrame, Long)]()

  /** The `(agent_id, day)` partitions pinned in memory. */
  def pinned: Set[(Int, String)] = synchronized(pins.keySet.toSet)

  /** Unpersist every partition this loader pinned in memory. */
  def close(): Unit = synchronized {
    pins.values.foreach(_._1.unpersist())
    pins.clear()
  }

  def baseEvents(globals: Seq[Ast.Global]): DataFrame =
    baseEventsWithSize(globals)._1

  /** Base events for the globals plus, when known, the footprint's row
    * count. The residual global predicate is always applied on top of the
    * (possibly partition-pruned) scan. Only agent-bound footprints are
    * pinned and counted — they are small, and their size is the engine's
    * cheapest statistic (one count per partition, amortized over every
    * query investigating that host); a day-wide footprint is left to the
    * vectorized Parquet scan, which outruns Spark's in-memory cache format
    * on wide rows.
    */
  def baseEventsWithSize(globals: Seq[Ast.Global]): (DataFrame, Option[Long]) = {
    val (df, rows) = source match {
      case InMemory(d) => (d, None)
      case StorePath(p) =>
        val agents = if (conf.partitionPruning) Times.agents(globals) else None
        val days =
          if (conf.partitionPruning)
            Times.window(globals).map { case (s, t) => Times.daysOf(s, t) }
          else None
        agents match {
          case None => (EventStore.readPruned(spark, p, agents, days), None)
          case Some(as) =>
            val parts = pin(p, EventStore.partitions(p, as, days))
            if (parts.isEmpty) (EventStore.readPruned(spark, p, agents, days), Some(0L))
            else (parts.map(_._1).reduce(_ union _), Some(parts.map(_._2).sum))
        }
    }
    (df.filter(PatternCompiler.globalPred(globals)), rows)
  }

  /** The pinned frames and row counts of `parts`. Partitions not pinned yet
    * are cached and counted together — one aggregation over their union,
    * each tagged with its index — so a footprint costs at most one count
    * however many of its partitions are new.
    */
  private def pin(path: String, parts: Seq[(Int, String)]): Seq[(DataFrame, Long)] = synchronized {
    val fresh = parts.filterNot(pins.contains)
    if (fresh.nonEmpty) {
      val frames = fresh.map(EventStore.readPartition(spark, path, _).cache())
      val tagged = frames.zipWithIndex.map { case (f, i) => f.select(lit(i).as("pin")) }
      val counts = fresh.indices.map(i => count(when(col("pin") === i, 1)))
      val row = tagged.reduce(_ union _).agg(counts.head, counts.tail: _*).collect()(0)
      for (i <- fresh.indices) pins(fresh(i)) = (frames(i), row.getLong(i))
    }
    parts.map(pins)
  }
}

/** Executes multievent AIQL queries with the paper's optimized scheduling:
  * one data query per event pattern, most-selective-first staged joins and
  * dynamic time-bound tightening — instead of handing one big multi-join SQL
  * to the default scheduler. A multi-agent query runs as one plan over its
  * pinned partitions; Spark parallelizes it across them.
  *
  * Result columns follow the `return` clause (shortcut aliases applied), so
  * results are directly comparable with the synthesized equivalent SQL.
  */
final class MultiEventEngine private[repro] (loader: BaseLoader, conf: AiqlConf) {

  import MultiEventEngine._

  // ------------------------------------------------------------ validation

  private def validate(q: MultiEventQuery): Unit = {
    val aliases = q.events.map(_.alias)
    if (aliases.distinct.size != aliases.size)
      throw SemanticError(s"duplicate event aliases in ${aliases.mkString(",")}")
    val kinds = scala.collection.mutable.Map[String, String]()
    for (e <- q.events; (v, k, _) <- Ast.entityOccurrences(e)) {
      kinds.get(v).foreach { k0 =>
        if (k0 != k) throw SemanticError(s"variable '$v' used as both $k0 and $k")
      }
      kinds(v) = k
    }
    for (t <- q.temps; side <- Seq(t.left, t.right))
      if (!aliases.contains(side))
        throw SemanticError(s"temporal relation references undeclared event '$side'")
  }

  /** Per-query relevant-set caches, rotated so at most a handful stay
    * pinned (a result DataFrame may be collected after the next query has
    * begun — unpersisting merely degrades that to recompute).
    */
  private val relevantCaches = new java.util.ArrayDeque[DataFrame]()
  private def registerRelevant(df: DataFrame): DataFrame = {
    relevantCaches.synchronized {
      relevantCaches.addLast(df)
      while (relevantCaches.size > 8) relevantCaches.pollFirst().unpersist()
    }
    df
  }

  /** Release the relevant-set caches ([[Aiql.close]] releases the pins). */
  def close(): Unit = {
    relevantCaches.synchronized {
      while (!relevantCaches.isEmpty) relevantCaches.pollFirst().unpersist()
    }
  }

  // ------------------------------------------------------------ execution

  /** Scan-time ts bounds (exclusive low / high) for one pattern, or None
    * when the bound state is already known empty.
    */
  private final case class TsBounds(lo: Option[Long], hi: Option[Long]) {
    def pred(tsCol: Column): Column = {
      var c = lit(true)
      lo.foreach(v => c = c && tsCol > v)
      hi.foreach(v => c = c && tsCol < v)
      c
    }
  }

  /** Run a multievent query and return the projected matches. */
  def execute(q: MultiEventQuery): DataFrame = {
    validate(q)
    val (base, footRows) = loader.baseEventsWithSize(q.globals)
    val n = q.events.size
    val preds = q.events.map(PatternCompiler.compile)

    // Cost-based fast path: a footprint the store already measured as small
    // (one pinned host-day or similar) needs no per-pattern statistics —
    // every leg is bounded by the footprint, so everything can be broadcast
    // and ordered heuristically, and the whole query runs as one action.
    val smallFoot = conf.exactSelectivity && conf.broadcastThreshold >= 0 &&
      footRows.exists(_ <= conf.broadcastThreshold)

    // Relevant-set extraction: one pass over the (pruned) base keeps only
    // rows matching SOME pattern, projected to the columns the query can
    // touch; the statistics aggregation and every join leg then read this
    // much smaller cached set instead of re-scanning the base per pattern.
    // (With a small pinned footprint the base itself is the in-memory set.)
    val cols = usedColumns(q)
    val relevant =
      if (n <= 1 || smallFoot) base.select(cols.map(col): _*)
      else registerRelevant(
        base.filter(preds.reduce(_ || _)).select(cols.map(col): _*).cache())

    // one data query per pattern, columns prefixed with the event alias
    def prefixed(i: Int, extra: Column): DataFrame = {
      val a = q.events(i).alias
      relevant.filter(preds(i) && extra)
        .select(cols.map(c => col(c).as(s"${a}__$c")): _*)
    }

    // pruning-power statistics: ALL pattern counts from one scan (which
    // also materializes the relevant-set cache) — the engine's analog of
    // consulting DB stats. Skipped when they cannot influence anything.
    val wantStats = conf.exactSelectivity && n > 1 && !smallFoot &&
      (conf.selectivityOrdering || conf.timeBoundPushdown || conf.broadcastThreshold >= 0)
    val counts: Array[Long] =
      if (!wantStats) Array.fill(n)(-1L)
      else {
        val aggs = preds.map(p => count(when(p, lit(1))))
        relevant.agg(aggs.head, aggs.tail: _*).collect()(0)
          .toSeq.map(_.asInstanceOf[Long]).toArray
      }

    val order: Seq[Int] =
      if (!conf.selectivityOrdering) q.events.indices
      else if (wantStats) q.events.indices.sortBy(i => (counts(i), i))
      else Selectivity.heuristicOrder(q.events)

    val firstOcc = firstOccurrences(q.events)

    var state: DataFrame = null
    var stateEst: Long = -1L // running size upper-bound estimate of `state`
    var knownEmpty = counts.contains(0L)
    val bound = scala.collection.mutable.LinkedHashSet[String]()
    val boundVars = scala.collection.mutable.Map[String, (String, String, String)]()
    val remaining = scala.collection.mutable.ArrayBuffer(order: _*)

    while (remaining.nonEmpty) {
      // prefer patterns connected to the bound set (shared vars or temporal
      // relation — both yield join conditions), in selectivity order
      val pickPos = remaining.indexWhere(i => connected(q, i, bound, boundVars)) match {
        case -1 => 0
        case p  => p
      }
      val i = remaining.remove(pickPos)
      val e = q.events(i)

      // stats-gated dynamic tightening: worth an extra aggregation job only
      // when the pattern to be scanned is large AND the intermediate state
      // is not already small enough to broadcast (a broadcast probe makes
      // the join cheap regardless of the streamed side's size)
      val stateBroadcastable = conf.broadcastThreshold >= 0 &&
        ((stateEst >= 0 && stateEst <= conf.broadcastThreshold) || smallFoot)
      val wantBounds = conf.timeBoundPushdown && state != null && !knownEmpty &&
        !stateBroadcastable && (counts(i) < 0 || counts(i) > conf.pushdownThreshold)
      val bounds: TsBounds =
        if (!wantBounds) TsBounds(None, None)
        else timeBounds(q, e.alias, bound, state).getOrElse { knownEmpty = true; TsBounds(None, None) }

      val df = prefixed(i, if (knownEmpty) lit(false) else bounds.pred(col("ts")))

      if (state == null) { state = df; stateEst = counts(i) }
      else {
        // Stats-gated materialize-and-probe (the paper's engine keeps small
        // intermediate results in memory and probes large patterns with
        // them): broadcast whichever side the statistics say is small — the
        // new pattern, or the accumulated intermediate state. `stateEst` is
        // the running upper-bound estimate min(counts of joined patterns);
        // joins can only multiply through shared keys, which the staged
        // order keeps rare, so the smaller measured side wins the hint.
        def small(x: Long) = conf.broadcastThreshold >= 0 &&
          ((x >= 0 && x <= conf.broadcastThreshold) || (x < 0 && smallFoot))
        val (l, r) =
          if (small(counts(i)) && (!small(stateEst) || counts(i) <= stateEst))
            (state, broadcast(df))
          else if (small(stateEst)) (broadcast(state), df)
          else (state, df)
        joinCondition(q, i, bound, boundVars) match {
          case Some(c) => state = l.join(r, c, "inner")
          case None    => state = l.crossJoin(r)
        }
        if (counts(i) >= 0)
          stateEst = if (stateEst < 0) counts(i) else math.min(stateEst, counts(i))
      }

      bound += e.alias
      for ((v, k, r) <- Ast.entityOccurrences(e) if !boundVars.contains(v))
        boundVars(v) = (e.alias, k, r)
    }

    project(q, state, firstOcc)
  }

  // --------------------------------------------------------------- pieces

  /** Schema columns a query can reference: pattern predicates, join keys,
    * temporal/aggregation inputs, and every return/group/having leaf —
    * computed so the relevant-set cache stores only what is needed.
    */
  private def usedColumns(q: MultiEventQuery): Seq[String] = {
    val s = scala.collection.mutable.Set("op", "obj_type", "ts", "agent_id")
    val firstOcc = firstOccurrences(q.events)
    def exprCols(e: Expr, resolveVar: String => Option[(String, String)]): Unit = e match {
      case VarRef(v) => resolveVar(v).foreach { case (k, r) => s += Attrs.entityAttr(k, r, "") }
      case AttrRef(v, a) if q.events.exists(_.alias == v) => s += Attrs.eventAttr(a)
      case AttrRef(v, a) =>
        resolveVar(v).foreach { case (k, r) => s += Attrs.entityAttr(k, r, a) }
      case Bin(_, l, r) => exprCols(l, resolveVar); exprCols(r, resolveVar)
      case Not(x)       => exprCols(x, resolveVar)
      case Agg(_, a)    => exprCols(a, resolveVar)
      case _            =>
    }
    for (e <- q.events) {
      s += Attrs.joinKey(e.subj.kind, "subj")
      s += Attrs.joinKey(e.obj.kind, "obj")
      for (f <- e.subj.filter) exprCols(f, v => Some((e.subj.kind, "subj")))
      for (f <- e.obj.filter)  exprCols(f, v => Some((e.obj.kind, "obj")))
    }
    val globalResolve = (v: String) => firstOcc.get(v).map { case (_, k, r) => (k, r) }
    for (r <- q.returns) exprCols(r.expr, globalResolve)
    for (g <- q.groupBy) exprCols(g, globalResolve)
    for (h <- q.having)  exprCols(h, globalResolve)
    EventSchema.columns.filter(s.contains)
  }

  private def firstOccurrences(events: Seq[EventPat]): Map[String, (String, String, String)] = {
    val m = scala.collection.mutable.LinkedHashMap[String, (String, String, String)]()
    for (e <- events; (v, k, r) <- Ast.entityOccurrences(e) if !m.contains(v))
      m(v) = (e.alias, k, r)
    m.toMap
  }

  private def connected(q: MultiEventQuery, i: Int, bound: collection.Set[String],
                        boundVars: collection.Map[String, (String, String, String)]): Boolean = {
    val e = q.events(i)
    val sharesVar = Ast.entityOccurrences(e).exists { case (v, _, _) => boundVars.contains(v) }
    val hasTemp = q.temps.exists(t =>
      (t.left == e.alias && bound(t.right)) || (t.right == e.alias && bound(t.left)))
    sharesVar || hasTemp
  }

  /** Join condition between pattern i and the already-bound state: entity
    * identity equalities (plus `agent_id` equality for host-local entities)
    * and any temporal relations whose other side is bound.
    */
  private def joinCondition(q: MultiEventQuery, i: Int, bound: collection.Set[String],
                            boundVars: collection.Map[String, (String, String, String)]): Option[Column] = {
    val e = q.events(i)
    var cond: Option[Column] = None
    def and(c: Column): Unit = cond = Some(cond.fold(c)(_ && c))

    for ((v, k, r) <- Ast.entityOccurrences(e); (bEvt, bKind, bRole) <- boundVars.get(v)) {
      if (bEvt != e.alias) {
        and(col(s"${bEvt}__${Attrs.joinKey(bKind, bRole)}") ===
            col(s"${e.alias}__${Attrs.joinKey(k, r)}"))
        if (Attrs.isHostLocal(k))
          and(col(s"${bEvt}__agent_id") === col(s"${e.alias}__agent_id"))
      }
    }
    for (t <- q.temps) {
      val pair: Option[(String, String)] =
        if (t.left == e.alias && bound(t.right)) Some((t.left, t.right))
        else if (t.right == e.alias && bound(t.left)) Some((t.left, t.right))
        else None
      for ((l, r) <- pair) {
        val (early, late) = if (t.rel == "before") (l, r) else (r, l)
        and(col(s"${early}__ts") < col(s"${late}__ts"))
      }
    }
    cond
  }

  /** Dynamic ts bounds for the pattern about to be joined: if `l before new`
    * for a bound `l`, matching rows need `ts > min(l.ts over candidates)`;
    * symmetrically for upper bounds. None ⇒ the state has no rows.
    */
  private def timeBounds(q: MultiEventQuery, alias: String,
                         bound: collection.Set[String], state: DataFrame): Option[TsBounds] = {
    val lows = q.temps.collect {
      case TempRel(l, "before", r) if r == alias && bound(l) => l
      case TempRel(l, "after", r)  if l == alias && bound(r) => r
    }.distinct
    val highs = q.temps.collect {
      case TempRel(l, "before", r) if l == alias && bound(r) => r
      case TempRel(l, "after", r)  if r == alias && bound(l) => l
    }.distinct
    if (lows.isEmpty && highs.isEmpty) return Some(TsBounds(None, None))
    val aggs = lows.map(l => min(col(s"${l}__ts"))) ++ highs.map(h => max(col(s"${h}__ts")))
    val row = state.agg(aggs.head, aggs.tail: _*).collect()(0)
    if (row.anyNull) return None
    val lo = if (lows.nonEmpty) Some(lows.indices.map(row.getLong).min) else None
    val hi = if (highs.nonEmpty) Some(highs.indices.map(k => row.getLong(lows.size + k)).max) else None
    Some(TsBounds(lo, hi))
  }

  // ----------------------------------------------------------- projection

  /** Resolve `return` / `group by` items against the joined, prefixed state. */
  private def project(q: MultiEventQuery, state: DataFrame,
                      firstOcc: Map[String, (String, String, String)]): DataFrame = {
    val aliases = q.events.map(_.alias).toSet

    def resolveLeaf(e: Expr): Column = e match {
      case VarRef(v) if aliases(v) =>
        throw SemanticError(s"bare event alias '$v' is not returnable; use $v.<attr>")
      case VarRef(v) =>
        val (evt, kind, role) = firstOcc.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(s"${evt}__${Attrs.entityAttr(kind, role, "")}")
      case AttrRef(v, a) if aliases(v) => col(s"${v}__${Attrs.eventAttr(a)}")
      case AttrRef(v, a) =>
        val (evt, kind, role) = firstOcc.getOrElse(v, throw SemanticError(s"unknown variable '$v'"))
        col(s"${evt}__${Attrs.entityAttr(kind, role, a)}")
      case other => throw SemanticError(s"unresolvable expression $other")
    }

    val hasAgg = q.returns.exists(r => ExprEval.hasAgg(r.expr))
    if (!hasAgg) {
      val cols = q.returns.map(r =>
        ExprEval.toColumn(r.expr, resolveLeaf).as(r.alias.getOrElse(defaultAlias(r.expr))))
      state.select(cols: _*)
    } else {
      if (q.groupBy.isEmpty && q.returns.exists(r => !ExprEval.hasAgg(r.expr)))
        throw SemanticError("non-aggregate return items require 'group by'")
      // name group keys after the return item that matches them (or a
      // positional name), aggregate the rest
      val keyCols = q.groupBy.map(g => ExprEval.toColumn(g, resolveLeaf).as(keyName(q.returns, g)))
      val aggCols = q.returns.collect {
        case ReturnItem(e, al) if ExprEval.hasAgg(e) =>
          aggColumnOf(e, resolveLeaf).as(al.getOrElse(defaultAlias(e)))
      }
      val grouped =
        if (keyCols.isEmpty) state.agg(aggCols.head, aggCols.tail: _*)
        else state.groupBy(keyCols: _*).agg(aggCols.head, aggCols.tail: _*)
      val outNames = q.returns.map { r =>
        if (ExprEval.hasAgg(r.expr)) r.alias.getOrElse(defaultAlias(r.expr))
        else {
          val g = q.groupBy.find(_ == r.expr).getOrElse(
            throw SemanticError(s"return item ${r.expr} is neither aggregated nor grouped"))
          keyName(q.returns, g)
        }
      }
      grouped.select(outNames.map(col): _*)
    }
  }
}

object MultiEventEngine {

  final case class SemanticError(msg: String) extends RuntimeException(msg)

  /** Default output-column names for unaliased return items — the engine and
    * [[SqlSynthesizer]] must agree exactly so results are diffable.
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
  def aggColumnOf(e: Expr, resolve: Expr => Column): Column = e match {
    case Agg("count", VarRef(_)) => count(lit(1))
    case Agg(f, arg)             => ExprEval.aggColumn(f, ExprEval.toColumn(arg, resolve))
    case other => throw SemanticError(s"expected aggregate, got $other")
  }
}
