package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StructField, StructType}

import Ast._
import repro.events.{EventSchema, EventStore}

/** Engine configuration — each flag is one of the paper's domain-specific
  * optimizations, individually toggleable for the ablation bench (T3).
  *
  * @param selectivityOrdering execute the pattern with the fewest matches
  *                            first (§2.3 insight 1: prioritize pruning
  *                            power), measured by an exact count of each
  *                            pattern; otherwise join in declared order
  * @param partitionPruning    prune `(agent_id, day)` store partitions from
  *                            the global constraints
  */
final case class AiqlConf(
    selectivityOrdering: Boolean = true,
    partitionPruning: Boolean = true,
    /** The paper's engine materializes small per-pattern results and probes
      * them instead of shuffling; the Spark analog is a broadcast-hash join.
      * Pattern frames whose measured count is at or below this threshold are
      * broadcast into the staged join (set < 0 to disable; the naive SQL
      * comparator has no stats and keeps default shuffle joins). A
      * multi-pattern query over a store footprint of at most this many rows
      * (agent-bound, day-wide or the whole store, sized from the store's
      * catalog) is joined in the driver, as long as its joined rows stay
      * within it. Every query over such a footprint runs interpreted, in a
      * session of the engine's own (see [[BaseLoader]]), and its aggregate
      * in one task, so the frame the engine returns for it belongs to that
      * session.
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
  * pruning, footprint sizes and a hot-partition cache: the paper's store
  * keeps the data of the hosts under investigation in memory (in-memory
  * indexes / hypertable). Here a query bound to one host (`agentid = A`)
  * pins each `(agent_id, day)` store partition it touches on first use; a
  * multi-agent sweep pins nothing. Any agent-bound footprint is the union of
  * its partitions already pinned and one Parquet read of the rest, so
  * overlapping footprints (a host-scoped query, then a multi-agent one on
  * the same day) share one copy, reused by the statistics pass, every
  * pattern scan, and later queries. Pins are cached at `MEMORY_AND_DISK`;
  * Spark's block manager bounds their memory and evicts their blocks least
  * recently used. One loader serves all engines of an [[Aiql]]. Release
  * with [[close]].
  *
  * A small store footprint (see [[small]]) is read through the loader's
  * own interpreted session: a session of the same Spark context with the
  * caller's modifiable SQL settings, but neither whole-stage code
  * generation nor generated expression classes. Such a query runs in
  * milliseconds, and compiling its generated classes would cost more than
  * it saves (Kohn, Leis & Neumann, "Adaptive Execution of Compiled
  * Queries", ICDE 2018). Spark runs a combined plan in the session of its
  * left-most frame, so every frame built on the base events of a small
  * footprint, and the result an engine returns for it, belongs to that
  * session. Pins are shared: both sessions read through one cache manager.
  */
private[repro] final class BaseLoader(
    spark: SparkSession, source: EventSource, conf: AiqlConf) {

  private val pins = scala.collection.mutable.Map[(Int, String), DataFrame]()

  /** The session small footprints run in, with the caller's modifiable SQL
    * settings as they are when the loader first reads one.
    */
  private lazy val interpreted: SparkSession = {
    val s = spark.newSession()
    for ((k, v) <- spark.conf.getAll if spark.conf.isModifiable(k)) s.conf.set(k, v)
    s.conf.set("spark.sql.codegen.wholeStage", "false")
    s.conf.set("spark.sql.codegen.factoryMode", "NO_CODEGEN")
    s
  }

  /** Is a footprint (or a pattern's matches) of `rows` small enough to be
    * joined in the driver, broadcast, and run interpreted? The gate is
    * `broadcastThreshold`.
    */
  def small(rows: Long): Boolean = conf.broadcastThreshold >= 0 && rows <= conf.broadcastThreshold

  /** The `(agent_id, day)` partitions pinned in memory. */
  def pinned: Set[(Int, String)] = synchronized(pins.keySet.toSet)

  /** Unpersist every partition this loader pinned in memory. */
  def close(): Unit = synchronized {
    pins.values.foreach(_.unpersist())
    pins.clear()
  }

  /** Base events for the globals plus, for a store, the footprint's row
    * count from the store's catalog (no Spark job), read once to list and
    * size the footprint. The residual global predicate is always applied on
    * top of the (possibly partition-pruned) scan, so under a `from … to …`
    * window the count is an upper bound. A footprint bound to exactly one
    * agent first pins its partitions — the host under investigation, reused
    * by every query on it. Any agent-bound footprint then reads its pinned
    * partitions from their pins and the others from one `by_agent_day`
    * scan. A day-wide or whole-store footprint is left to the vectorized
    * Parquet scan, which outruns Spark's in-memory cache format on wide
    * rows. A [[small]] footprint reads its partitions not pinned (or an
    * empty relation) in the interpreted session, and that read comes first
    * in the union with the pins, so the whole frame belongs to it.
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
        val listed = EventStore.partitions(p, agents, days)
        val rows = listed.map(_._2).sum
        val (hot, cold) = agents match {
          case Some(as) => split(p, listed.map(_._1), admit = as.size == 1)
          case None => (Nil, listed.map(_._1))
        }
        val read = EventStore.readPartitions(
          if (small(rows)) interpreted else spark, p, cold, wholeDays = agents.isEmpty)
        ((read +: hot).reduce(_ union _), Some(rows))
    }
    (df.filter(PatternCompiler.globalPred(globals)), rows)
  }

  /** The pinned frames of `parts`, and the partitions of `parts` not
    * pinned. With `admit`, every partition not pinned yet is pinned first:
    * cached lazily — the first query that reads it materializes it in its
    * own job.
    */
  private def split(path: String, parts: Seq[(Int, String)],
                    admit: Boolean): (Seq[DataFrame], Seq[(Int, String)]) = synchronized {
    if (admit)
      for (part <- parts if !pins.contains(part))
        pins(part) = EventStore.readPartitions(spark, path, Seq(part)).cache()
    val (hot, cold) = parts.partition(pins.contains)
    (hot.map(pins), cold)
  }
}

/** Executes multievent AIQL queries with the paper's optimized scheduling:
  * one data query per event pattern and most-selective-first staged joins —
  * instead of handing one big multi-join SQL to the default scheduler. A
  * multi-agent query runs as one plan over its footprint's partitions; Spark
  * parallelizes it across them.
  *
  * Result columns follow the `return` clause (shortcut aliases applied), so
  * results are directly comparable with the synthesized equivalent SQL.
  */
final class MultiEventEngine private[repro] (loader: BaseLoader, conf: AiqlConf) {

  import MultiEventEngine._

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

  /** Run a multievent query and return the projected matches. */
  def execute(q: MultiEventQuery): DataFrame = {
    val scope = new Scope(q.events)
    val out = Scope.shape(q)
    val (base, footRows) = loader.baseEventsWithSize(q.globals)
    val preds = q.events.map(PatternCompiler.compile)
    val cols = usedColumns(q, scope)
    // Relevant-set extraction: one pass over the (pruned) base keeps only
    // rows matching SOME pattern, projected to the columns the query can
    // touch, each flagged (`match<i>`) with the patterns it matches. Both
    // executors read it, and count each pattern's matches from its flags.
    val relevant = base.filter(preds.reduce(_ || _))
      .select(cols.map(col) ++ preds.zipWithIndex.map { case (p, i) => p.as(s"match$i") }: _*)

    // Cost-based fast path: a footprint whose catalog size says it is
    // small (a host-day, or every host's events of a day at small scale)
    // bounds every pattern, so a multi-pattern query over it is joined in
    // the driver from one Spark action. A driver join that outgrows its
    // bound runs as staged Spark joins, as for a footprint of unknown size.
    val smallFoot = footRows.exists(loader.small)
    val inDriver = if (smallFoot && q.events.size > 1) joinInDriver(q, relevant, cols) else None
    val joined = inDriver.getOrElse(joinInSpark(q, relevant, cols))
    // a small footprint's aggregate runs in one task: no exchange, so no
    // shuffle stage
    val oneTask = smallFoot && out.aggs.nonEmpty && (inDriver.nonEmpty || q.events.size == 1)
    Scope.project(if (oneTask) joined.coalesce(1) else joined, out,
      e => { val (a, c) = scope.column(e); col(s"${a}__$c") })
  }

  /** The staged Spark plan: per-pattern scans of the cached relevant set,
    * ordered by pruning power, joined left-deep with stats-gated broadcasts.
    * Columns are prefixed with the event alias.
    */
  private def joinInSpark(q: MultiEventQuery, relevant: DataFrame, cols: Seq[String]): DataFrame = {
    val n = q.events.size

    // pruning-power statistics: ALL pattern counts from one scan of the
    // flags, which also materializes the relevant-set cache that every join
    // leg then reads — the engine's analog of consulting DB stats. A single
    // pattern has nothing to order or join.
    val rel = if (n > 1) registerRelevant(relevant.cache()) else relevant
    val counts: Seq[Long] =
      if (n <= 1) Seq(-1L)
      else {
        val aggs = q.events.indices.map(i => count(when(col(s"match$i"), lit(1))))
        rel.agg(aggs.head, aggs.tail: _*).collect()(0).toSeq.map(_.asInstanceOf[Long])
      }
    val knownEmpty = counts.contains(0L)

    // one data query per pattern, columns prefixed with the event alias
    def prefixed(i: Int): DataFrame = {
      val a = q.events(i).alias
      rel.filter(if (knownEmpty) lit(false) else col(s"match$i"))
        .select(cols.map(c => col(c).as(s"${a}__$c")): _*)
    }

    var state: DataFrame = null
    var stateEst: Long = -1L // running size upper-bound estimate of `state`

    for (Stage(i, terms) <- stages(q, counts)) {
      val df = prefixed(i)
      if (state == null) { state = df; stateEst = counts(i) }
      else {
        // Stats-gated materialize-and-probe (the paper's engine keeps small
        // intermediate results in memory and probes large patterns with
        // them): broadcast whichever side the statistics say is small — the
        // new pattern, or the accumulated intermediate state. `stateEst` is
        // the running upper-bound estimate min(counts of joined patterns);
        // joins can only multiply through shared keys, which the staged
        // order keeps rare, so the smaller measured side wins the hint.
        val (l, r) =
          if (loader.small(counts(i)) && (!loader.small(stateEst) || counts(i) <= stateEst))
            (state, broadcast(df))
          else if (loader.small(stateEst)) (broadcast(state), df)
          else (state, df)
        state =
          if (terms.isEmpty) l.crossJoin(r)
          else l.join(r, terms.map(_.column).reduce(_ && _), "inner")
        stateEst = math.min(stateEst, counts(i))
      }
    }
    state
  }

  /** The staged joins of a small footprint, run in the driver — the paper's
    * engine keeping small per-pattern results in memory and probing them.
    * One Spark action collects the relevant set; its flags give exact
    * per-pattern counts for the pruning-power order. Each stage of
    * [[stages]] is a hash join on its `Eq` terms; within a bucket, sorted by
    * `ts`, a probe reads only the range its `Before` terms allow. Returns
    * the joined rows as a local frame, or None as soon as they outgrow
    * `broadcastThreshold` rows.
    */
  private def joinInDriver(q: MultiEventQuery, relevant: DataFrame,
                           cols: Seq[String]): Option[DataFrame] = {
    val n = q.events.size
    val rows = relevant.collect()
    val matches = q.events.indices.map { i =>
      val f = cols.size + i
      rows.filter(r => !r.isNullAt(f) && r.getBoolean(f))
    }

    val slot = q.events.map(_.alias).zipWithIndex.toMap
    val colAt = cols.zipWithIndex.toMap
    val ts = colAt("ts")

    // A joined tuple holds one matching row per bound pattern, by position.
    // `ts` is never null in the store, so the `Before` ranges need no null check.
    def probe(state: Vector[Array[Row]], stage: Stage): Option[Vector[Array[Row]]] = {
      val alias = q.events(stage.i).alias
      // (slot, column) of each key's bound side, and its column in the new pattern
      val keys = stage.terms.collect { case Eq(b, n) => (slot(b.alias), colAt(b.column), colAt(n.column)) }
      val lows = stage.terms.collect { case Before(l, `alias`) => slot(l) }
      val highs = stage.terms.collect { case Before(`alias`, h) => slot(h) }
      val buckets = matches(stage.i)
        .groupBy(r => keys.map { case (_, _, c) => r.get(c) })
        .collect { case (k, rs) if !k.contains(null) =>
          val sorted = rs.sortBy(_.getLong(ts))
          k -> (sorted, sorted.map(_.getLong(ts)))
        }
      val out = Vector.newBuilder[Array[Row]]
      var size = 0
      val it = state.iterator
      while (it.hasNext && size <= conf.broadcastThreshold) {
        val t = it.next()
        for ((rs, times) <- buckets.get(keys.map { case (s, c, _) => t(s).get(c) })) {
          val from = lows.map(t(_).getLong(ts)).maxOption.fold(0)(lo => firstIndex(times)(_ > lo))
          val until = highs.map(t(_).getLong(ts)).minOption.fold(times.length)(hi => firstIndex(times)(_ >= hi))
          for (k <- from until until) { val u = t.clone(); u(stage.i) = rs(k); out += u }
          size += math.max(0, until - from)
        }
      }
      if (size > conf.broadcastThreshold) None else Some(out.result())
    }

    stages(q, matches.map(_.length.toLong))
      .foldLeft(Option(Vector(new Array[Row](n))))((s, st) => s.flatMap(probe(_, st)))
      .map { tuples =>
        val schema = StructType(for (e <- q.events; c <- cols)
          yield StructField(s"${e.alias}__$c", relevant.schema(c).dataType))
        val out = tuples.map(t => Row.fromSeq(t.toSeq.flatMap(r => cols.indices.map(r.get))))
        relevant.sparkSession.createDataFrame(out.asJava, schema)
      }
  }

  /** First index of the sorted `xs` at which `p` holds (`xs.length` if
    * none); `p` must be false on a prefix of `xs` and true after it.
    */
  private def firstIndex(xs: Array[Long])(p: Long => Boolean): Int = {
    var lo = 0
    var hi = xs.length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (p(xs(m))) hi = m else lo = m + 1
    }
    lo
  }

  // --------------------------------------------------------------- pieces

  /** Schema columns a query can reference: pattern predicates, join keys,
    * temporal/aggregation inputs, and every return/group leaf — computed so
    * the relevant-set cache stores only what is needed.
    */
  private def usedColumns(q: MultiEventQuery, scope: Scope): Seq[String] = {
    val s = scala.collection.mutable.Set("op", "obj_type", "ts", "agent_id")
    for (e <- q.events; (ent, role) <- Seq((e.subj, "subj"), (e.obj, "obj"))) {
      s += Attrs.joinKey(ent.kind, role)
      for (f <- ent.filter) s ++= Scope.leaves(f).map(Scope.filterColumn(ent, role))
    }
    for (e <- q.returns.map(_.expr) ++ q.groupBy; leaf <- Scope.leaves(e)) s += scope.column(leaf)._2
    EventSchema.columns.filter(s.contains)
  }

  /** The staged join: patterns by pruning power — fewest matches first,
    * by their `counts` — or as declared without `selectivityOrdering`,
    * except that a pattern connected to the bound ones (a shared variable
    * or a temporal relation — a non-empty join) is always taken before one
    * that is not. Both executions of [[execute]] follow it.
    */
  private def stages(q: MultiEventQuery, counts: Seq[Long]): Seq[Stage] = {
    val order =
      if (conf.selectivityOrdering) q.events.indices.sortBy(i => (counts(i), i))
      else q.events.indices
    val bound = scala.collection.mutable.Set[String]()
    val boundVars = scala.collection.mutable.Map[String, (String, String, String)]()
    val remaining = scala.collection.mutable.ArrayBuffer(order: _*)
    val out = Seq.newBuilder[Stage]
    while (remaining.nonEmpty) {
      val next = remaining.map(i => Stage(i, joinTerms(q, q.events(i), bound, boundVars)))
      val stage = next.find(_.terms.nonEmpty).getOrElse(next.head)
      remaining -= stage.i
      out += stage
      val e = q.events(stage.i)
      bound += e.alias
      for ((v, k, r) <- Ast.entityOccurrences(e) if !boundVars.contains(v))
        boundVars(v) = (e.alias, k, r)
    }
    out.result()
  }

  /** The terms joining pattern `e` to the already-bound events: entity
    * identity equalities (plus `agent_id` equality for host-local entities)
    * and any temporal relations whose other side is bound.
    */
  private def joinTerms(q: MultiEventQuery, e: EventPat, bound: collection.Set[String],
                        boundVars: collection.Map[String, (String, String, String)]): Seq[JoinTerm] = {
    val keys = for {
      (v, k, r) <- Ast.entityOccurrences(e)
      (bEvt, bKind, bRole) <- boundVars.get(v).toSeq
      term <- Eq(Ref(bEvt, Attrs.joinKey(bKind, bRole)), Ref(e.alias, Attrs.joinKey(k, r))) +:
        (if (Attrs.isHostLocal(k)) Seq(Eq(Ref(bEvt, "agent_id"), Ref(e.alias, "agent_id"))) else Nil)
    } yield term
    val times = q.temps.collect {
      case TempRel(l, rel, r) if (l == e.alias && bound(r)) || (r == e.alias && bound(l)) =>
        if (rel == "before") Before(l, r) else Before(r, l)
    }
    (keys ++ times).distinct
  }
}

object MultiEventEngine {

  /** A column `alias__column` of the joined, prefixed state. */
  private final case class Ref(alias: String, column: String)

  /** One term of the join between a pattern and the events bound before it:
    * `Eq` equates two columns (nulls never match), `Before` orders two
    * events' timestamps. The Spark plan renders the terms as one [[Column]];
    * the driver-side join evaluates them on collected rows.
    */
  private sealed trait JoinTerm {
    def column: Column = this match {
      case Eq(b, n)            => col(s"${b.alias}__${b.column}") === col(s"${n.alias}__${n.column}")
      case Before(early, late) => col(s"${early}__ts") < col(s"${late}__ts")
    }
  }
  private final case class Eq(bound: Ref, next: Ref) extends JoinTerm
  private final case class Before(early: String, late: String) extends JoinTerm

  /** One step of the staged join: pattern `i` joined to the earlier ones on `terms`. */
  private final case class Stage(i: Int, terms: Seq[JoinTerm])
}
