package repro.perf

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Try

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.apache.spark.sql.types.StructType

import repro.TestUtil
import repro.attack.{AttackDataGen, InvestigationQueries}
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.core.Ast.Query
import repro.events.{EventSchema, EventStore}

/** Settings of one run. `plantWrong` names a query whose expected rows are
  * replaced by a wrong set (the harness's self-test only).
  */
final case class Opts(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    sf: Double,
    plantWrong: Option[String],
    work: Path)

/** One timed call into the program and how it ended. `slot` is the query's
  * position in its pass; `primary` marks the AIQL side, as opposed to the
  * SQL comparator.
  */
final case class OpResult(name: String, family: String, pass: Int, slot: Int, traced: Boolean,
                          primary: Boolean, ms: Double, rows: Long, ok: Boolean)

/** Runs one workload: set-up, then timed passes over the workload's
  * queries for about [[Opts.seconds]] ([[Bench.passes]]), then the metrics.
  * Every result is checked; a call that throws or returns wrong rows is
  * counted as failed and its time is not used.
  */
final class Bench(spark: SparkSession, o: Opts) {

  private val sc = spark.sparkContext
  private val tracer = new Tracer(sc)

  private var attempted = 0
  private val failures = mutable.ArrayBuffer[String]()
  private val ops = mutable.ArrayBuffer[OpResult]()
  private val buildS = mutable.ArrayBuffer[Double]()
  private var warmS = 0.0
  private var flatS = 0.0
  private var inputRows = 0L
  private val layoutBytes = mutable.LinkedHashMap[String, Double]()
  private var filesWritten = 0
  private var gcMsPerPass = 0.0
  private val touched = mutable.Set[String]()
  private val firstTouch = mutable.LinkedHashMap[String, (Int, Int)]()
  private var cachedFrames = 0
  private var cacheMb = 0.0

  private def now: Double = System.nanoTime() / 1e6

  private def fail(what: String, e: Throwable): Unit = {
    val msg = Option(e.getMessage).getOrElse(e.getClass.getName).linesIterator.take(4).mkString(" | ")
    failures += s"$what: $msg"
  }

  /** Run `f`, counting it as one attempted operation; None if it threw. */
  private def attempt[A](what: String)(f: => A): Option[A] = {
    attempted += 1
    try Some(f) catch { case e: Exception => fail(what, e); None }
  }

  /** The queries of one pass, warm-up or timed: the paper's 20 in order,
    * or a fresh hunt draw; None when the workload has no fresh pass left.
    */
  private val nextPass: () => Option[Seq[BenchQuery]] = o.workload match {
    case "investigate" =>
      val paper = InvestigationQueries.all.map(q => BenchQuery(q.name, "paper", q.aiql, q.expect))
      () => Some(paper)
    case "hunt" =>
      val hunt = new Hunt(o.sf, o.seed)
      () => hunt.pass()
    case w => throw new IllegalArgumentException(s"unknown workload '$w'")
  }

  /** Wall time of each phase of the run, printed with the results. */
  private val phases = mutable.LinkedHashMap[String, Double]()
  private def phase[A](name: String)(f: => A): A = {
    val t0 = now
    try f finally phases(name) = (now - t0) / 1000
  }

  def run(): String = {
    Files.createDirectories(o.work)
    val engines = phase("setup")(setUp())
    val expected = phase("warmup+check")(warmUpAndCheck(engines))
    phase("timed") { timedPasses { (pass, queries) =>
      for ((q, slot) <- queries.zipWithIndex) {
        val fp = Bench.footprint(Parser.parse(q.text))
        val (first, total) = firstTouch.getOrElse(q.family, (0, 0))
        firstTouch(q.family) = (first + (if (touched(fp)) 0 else 1), total + 1)
        touched += fp
        // with tracing, every other query, the other half in the next pass
        val traced = o.trace && (pass + slot) % 2 == 1
        if (traced) tracer.start()
        runQuery(engines, q, pass, slot, traced, expected.get(q.name))
        if (traced) tracer.stop()
      }
    } }
    cachedFrames = sc.getPersistentRDDs.size
    cacheMb = sc.getRDDStorageInfo.map(_.memSize).sum / 1e6
    engines.aiql.close()
    if (o.trace) tracer.dump(o.work.resolveSibling("traces").resolve(s"${o.workload}-seed${o.seed}.jsonl"))
    report()
  }

  // ------------------------------------------------------------- set-up

  private final class Engines(store: Path, flat: Path) {
    val aiql = new Aiql(spark, StorePath(store.toString))
    val baseline = new NaiveSqlBaseline(spark, EventStore.readFlat(spark, flat.toString))
  }

  /** The events a run ingests: the seeded trace plus 5% of its events sent
    * twice, as collection agents re-send; the store's dedup collapses them.
    */
  private def input(): DataFrame = {
    val events = AttackDataGen.events(spark, o.sf, o.seed)
    events.unionByName(events.sample(withReplacement = false, 0.05, o.seed))
  }

  /** Builds the store [[Bench.Builds]] times, each from scratch, keeping the
    * last, and the comparator's flat copy once; then checks that the three
    * layouts hold exactly the deduplicated input.
    */
  private def setUp(): Engines = {
    val data = o.work.resolve("data")
    for (_ <- 1 to Bench.Builds) {
      deleteTree(data.resolve("store"))
      val t0 = now
      EventStore.write(input(), data.resolve("store").toString)
      buildS += (now - t0) / 1000
    }
    val t0 = now
    EventStore.writeFlat(input(), data.resolve("flat").toString)
    flatS = (now - t0) / 1000

    val perKey = input().groupBy(EventSchema.dedupKey.map(col): _*).count()
    val totals = perKey.agg(count(lit(1)), sum("count")).collect()(0)
    val distinct = totals.getLong(0)
    inputRows = totals.getLong(1)
    val layouts = Seq("by_agent_day" -> "store/by_agent_day", "by_day" -> "store/by_day", "flat" -> "flat")
      .map { case (name, sub) => name -> parquetFiles(data.resolve(sub)) }
    for ((name, files) <- layouts) layoutBytes(name) = files.map(Files.size).sum.toDouble / inputRows
    filesWritten = layouts.map(_._2.size).sum
    attempt("store layouts") {
      val counts = layouts.map { case (name, files) => name -> files.map(parquetRows).sum }
      require(counts.forall(_._2 == distinct),
        s"row counts ${counts.mkString(", ")} differ from the $distinct deduplicated input rows")
    }
    new Engines(data.resolve("store"), data.resolve("flat"))
  }

  private def parquetFiles(dir: Path): Seq[Path] =
    Files.walk(dir).iterator.asScala
      .filter(p => Files.isRegularFile(p) && p.toString.endsWith(".parquet")).toSeq

  /** Row count from a Parquet file's footer. */
  private def parquetRows(p: Path): Long = {
    val in = org.apache.parquet.hadoop.util.HadoopInputFile.fromPath(
      new org.apache.hadoop.fs.Path(p.toUri), sc.hadoopConfiguration)
    val reader = org.apache.parquet.hadoop.ParquetFileReader.open(in)
    try reader.getRecordCount finally reader.close()
  }

  /** The warm-up pass through AIQL (part of set-up time), then, untimed,
    * each of its results checked against the equivalent SQL and, for the
    * paper's queries, their expected values. Returns the checked rows by
    * query name, which later executions of the same query must reproduce.
    */
  private def warmUpAndCheck(e: Engines): Map[String, DataFrame] = {
    val t0 = now
    val warm = nextPass().get.map { q =>
      val parsed = Parser.parse(q.text)
      touched += Bench.footprint(parsed)
      (q, parsed, Try(local(e.aiql.execute(parsed))))
    }
    warmS = (now - t0) / 1000
    warm.flatMap { case (q, parsed, a) =>
      attempt(s"${q.name} check") {
        val s = local(e.baseline.execute(parsed))
        TestUtil.assertSameRows(a.get, s, s"${q.name} aiql vs sql:")
        if (q.expect.nonEmpty)
          require(TestUtil.containsBinding(a.get, q.expect), s"${q.name}: no row binds ${q.expect}")
        q.name -> (if (o.plantWrong.contains(q.name)) planted(s) else s)
      }
    }.toMap
  }

  // ------------------------------------------------------------- passes

  /** One query through AIQL and then through the SQL comparator, each timed;
    * after the timing both results are checked against `expected` (the
    * paper's session) or, for drawn queries, against each other.
    */
  private def runQuery(e: Engines, q: BenchQuery, pass: Int, slot: Int, traced: Boolean,
                       expected: Option[DataFrame]): Unit = {
    val op = s"${q.name}#$pass"
    var parsed: Query = null
    val a = attempt(s"${q.name} aiql") {
      val t0 = now
      val (rows, df) = tracer.span("aiql", op) {
        parsed = tracer.span("parser.parse", op)(Parser.parse(q.text))
        val df = tracer.span("engine.build", op)(e.aiql.execute(parsed))
        (tracer.span("engine.collect", op)(df.collect()), df)
      }
      (now - t0, rows, df.schema)
    }
    if (traced && parsed != null)
      tracer.span("sql.synth", op)(SqlSynthesizer.forQuery(parsed, SqlSynthesizer.Spark))
    val s = attempt(s"${q.name} sql") {
      val t0 = now
      val (rows, df) = tracer.span("sql", op) {
        val df = tracer.span("sql.build", op)(e.baseline.execute(q.text))
        (tracer.span("sql.collect", op)(df.collect()), df)
      }
      (now - t0, rows, df.schema)
    }
    val ref = expected.orElse(s.map { case (_, rows, schema) => localOf(rows, schema) })
    def record(r: Option[(Double, Array[Row], StructType)], side: String, primary: Boolean): Unit =
      for ((ms, rows, schema) <- r) {
        val ok = ref.exists { x =>
          try { TestUtil.assertSameRows(localOf(rows, schema), x, s"${q.name} $side:"); true }
          catch { case ex: IllegalArgumentException => fail(s"${q.name} $side", ex); false }
        }
        ops += OpResult(q.name, q.family, pass, slot, traced, primary, ms, rows.length.toLong, ok)
      }
    record(a, "aiql", primary = true)
    record(s, "sql", primary = false)
  }

  private def local(df: DataFrame): DataFrame = localOf(df.collect(), df.schema)

  private def localOf(rows: Array[Row], schema: StructType): DataFrame =
    spark.createDataFrame(rows.toSeq.asJava, schema)

  /** The expected rows plus one row that no query returns. */
  private def planted(df: DataFrame): DataFrame =
    localOf(df.collect() :+ Row.fromSeq(df.schema.fields.map(_ => null).toSeq), df.schema)

  private def gcTotalMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  /** [[Bench.passes]] timed passes, fewer if the workload runs out of fresh
    * ones.
    */
  private def timedPasses(pass: (Int, Seq[BenchQuery]) => Unit): Unit = {
    tracer.drain()
    val gc0 = gcTotalMs
    val passes = Iterator.continually(nextPass())
      .take(Bench.passes(o.workload, o.seconds, o.trace)).takeWhile(_.nonEmpty).flatten
    var n = 0
    for ((queries, i) <- passes.zipWithIndex) { pass(i, queries); n += 1 }
    gcMsPerPass = (gcTotalMs - gc0) / math.max(1, n)
    tracer.drain()
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p))
      Files.walk(p).sorted(java.util.Comparator.reverseOrder()).iterator.asScala.foreach(Files.delete)

  // ------------------------------------------------------------- report

  private def med(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs.toSeq)

  private def report(): String = {
    val metrics = mutable.LinkedHashMap[String, (Double, String)]()
    def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
    val good = ops.filter(_.ok).toSeq
    val untraced = good.filterNot(_.traced)
    def sessions(primary: Boolean): Seq[Double] =
      untraced.filter(_.primary == primary).groupBy(_.pass).values.map(_.map(_.ms).sum / 1000).toSeq
    val latencies = untraced.filter(_.primary).map(_.ms)
    def latency(p: Double) = if (latencies.isEmpty) 0.0 else Stats.quantile(latencies, p)

    if (!o.trace) {
      put("setup_s", med(buildS) + warmS, "s")
      put("session_s", med(sessions(primary = true)), "s")
      put("query_p50_ms", latency(0.5), "ms")
      put("query_p90_ms", latency(0.9), "ms")
      put("sql_session_s", med(sessions(primary = false)), "s")
      put("cache_mb", cacheMb, "MB")
      put("ingest_events_per_s", inputRows / med(buildS), "1/s")
      put("store_bytes_per_event", layoutBytes("by_agent_day") + layoutBytes("by_day"), "B")
    } else layerMetrics(good, put)

    val failed = failures.size
    println(s"samples: ${latencies.size} untraced timed AIQL queries over ${sessions(primary = true).size} " +
      s"passes; store builds ${buildS.map(s => f"$s%.2f").mkString(" ")} s, " +
      f"flat copy $flatS%.2f s, warm-up $warmS%.2f s; phases " + phases.map { case (k, v) => f"$k $v%.1f s" }.mkString(", "))
    for ((pass, rs) <- untraced.filter(_.primary).groupBy(_.pass).toSeq.sortBy(_._1))
      println(s"pass $pass AIQL ms: " + rs.map(r => f"${r.name}%s=${r.ms}%.0f").mkString(" "))
    for ((fam, (first, total)) <- firstTouch)
      println(f"first-touch share [$fam%s]: $first%d/$total%d = ${first.toDouble / math.max(1, total)}%.2f")
    for (f <- failures) println(s"FAILED $f")
    println(f"failed_ops_ratio: $failed%d/$attempted%d = ${failed.toDouble / math.max(1, attempted)}%.4f")
    for ((k, (v, u)) <- metrics) println(f"metric $k%-40s $v%14.4f $u")
    Json(mutable.LinkedHashMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) }))
  }

  /** Per-layer metrics from the spans of the traced queries. */
  private def layerMetrics(good: Seq[OpResult], put: (String, Double, String) => Unit): Unit = {
    val spans = tracer.spans
    val children = spans.groupBy(_.parent)
    def subtree(s: Span): Seq[Span] = s +: children.getOrElse(s.id, Nil).flatMap(subtree)
    def named(n: String) = spans.filter(_.name == n)
    def mean(xs: Seq[Double]) = Stats.mean(xs)
    def jobs(s: Span) = subtree(s).map(x => tracer.work(x).jobs.size.toDouble).sum
    def sumWork(s: Span)(f: GroupWork => Long) = subtree(s).map(x => f(tracer.work(x)).toDouble).sum
    def busy(s: Span) = Stats.unionLength(subtree(s).flatMap(x => tracer.work(x).jobIntervals), s.start, s.end)
    val okOps = good.filter(_.traced).map(r => (s"${r.name}#${r.pass}", r.primary)).toSet
    val aiql = named("aiql").filter(s => okOps((s.op, true)))
    val sql = named("sql").filter(s => okOps((s.op, false)))
    val rowsOut = good.filter(r => r.traced && r.primary).map(_.rows.toDouble).sum

    put("parser.parse_ms", med(named("parser.parse").map(_.ms)), "ms")
    for (layer <- Seq("build", "collect")) {
      val ss = named(s"engine.$layer")
      put(s"engine.${layer}_ms", med(ss.map(_.ms)), "ms")
      put(s"engine.${layer}_jobs", mean(ss.map(jobs)), "count")
      put(s"engine.${layer}_self_ms", med(ss.map(tracer.selfMs)), "ms")
    }
    for (q <- InvestigationQueries.all.map(_.name)) {
      val ss = aiql.filter(_.op.startsWith(s"$q#"))
      put(s"engine.$q.ms", med(ss.map(_.ms)), "ms")
      put(s"engine.$q.jobs", mean(ss.map(jobs)), "count")
    }
    for (fam <- Seq("track", "sweep", "scan"))
      put(s"engine.${fam}_ms", med(aiql.filter(_.op.startsWith(fam)).map(_.ms)), "ms")
    put("spark.jobs_per_query", mean(aiql.map(jobs)), "count")
    put("spark.stages_per_query", mean(aiql.map(s => sumWork(s)(_.stages.toLong))), "count")
    put("spark.tasks_per_query", mean(aiql.map(s => sumWork(s)(_.tasks.toLong))), "count")
    put("spark.shuffle_write_mb", mean(aiql.map(s => sumWork(s)(_.shuffleWriteBytes) / 1e6)), "MB")
    put("spark.spill_mb", mean(aiql.map(s => sumWork(s)(_.spillBytes) / 1e6)), "MB")
    put("spark.job_busy_ms", mean(aiql.map(busy)), "ms")
    put("spark.driver_gap_ms", mean(aiql.map(s => s.ms - busy(s))), "ms")
    put("spark.ungrouped_jobs", tracer.ungroupedJobs.toDouble, "count")
    put("store.input_mb_per_query", mean(aiql.map(s => sumWork(s)(_.inputBytes) / 1e6)), "MB")
    val records = aiql.map(s => sumWork(s)(_.inputRecords))
    put("store.records_read_per_query", mean(records), "count")
    put("store.records_read_per_row_returned", records.sum / math.max(1.0, rowsOut), "count")
    put("store.write_s", med(buildS), "s")
    put("store.write_flat_s", flatS, "s")
    put("store.files_written", filesWritten.toDouble, "count")
    for ((layout, bytes) <- layoutBytes) put(s"store.bytes_per_event.$layout", bytes, "B")
    put("loader.cached_frames", cachedFrames.toDouble, "count")
    for (fam <- Seq("paper", "track", "sweep", "scan")) {
      val (first, total) = firstTouch.getOrElse(fam, (0, 0))
      put(s"loader.first_touch.$fam", first.toDouble / math.max(1, total), "ratio")
    }
    put("sql.synth_ms", med(named("sql.synth").map(_.ms)), "ms")
    put("sql.jobs_per_query", mean(sql.map(jobs)), "count")
    put("sql.input_mb_per_query", mean(sql.map(s => sumWork(s)(_.inputBytes) / 1e6)), "MB")
    put("sql.driver_gap_ms", mean(sql.map(s => s.ms - busy(s))), "ms")
    put("jvm.gc_ms", gcMsPerPass, "ms")
    // per slot of a pass (the same query shape in every pass), traced minus
    // untraced latency, summed over the slots: the traced session time
    // minus the untraced one, each slot traced in one pass and not in the
    // other, so the speed-up from one pass to the next cancels
    val overheadMs = good.filter(_.primary).groupBy(_.slot).values.map { rs =>
      val (t, u) = rs.partition(_.traced)
      if (t.isEmpty || u.isEmpty) 0.0 else med(t.map(_.ms)) - med(u.map(_.ms))
    }.sum
    put("trace.overhead_s", overheadMs / 1000, "s")
  }
}

object Bench {
  /** Store builds per run; set-up time is their median plus the warm-up. */
  val Builds = 3

  /** About how long one timed pass, AIQL and SQL, takes on a 4-core
    * machine at the default scale.
    */
  val PassSeconds = Map("investigate" -> 13.0, "hunt" -> 9.0)

  /** Timed passes of a run: one per started [[PassSeconds]] of `seconds`,
    * and with tracing at least two, so that every query slot runs once
    * traced and once untraced. The count
    * does not depend on how fast the code under test runs, so neither does
    * the mix the medians are taken over, nor the pin cache's growth.
    */
  def passes(workload: String, seconds: Double, trace: Boolean): Int =
    math.max(if (trace) 2 else 1, math.ceil(seconds / PassSeconds(workload)).toInt)

  /** The agent set and days a query reads, as `agents@days`. */
  def footprint(q: Query): String = {
    val agents = Times.agents(q.globals).map(_.mkString("+")).getOrElse("all")
    val days = Times.window(q.globals).map { case (s, t) => Times.daysOf(s, t).mkString("+") }
    s"$agents@${days.getOrElse("all")}"
  }
}
