package repro.attack

import java.nio.file.Files

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.execution.{FileSourceScanExec, WholeStageCodegenExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper

import repro.{SparkSpec, TestUtil}
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.events.EventStore

/** The full storage path: events written to the partitioned store, queried
  * through [[StorePath]] with partition pruning — results must match the
  * naive SQL baseline on both the driver-side and the Spark joins, and the
  * in-memory execution, and pruning must actually reduce scanned files.
  */
class StoreIntegrationSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val (storeDir, events) = {
    val dir = Files.createTempDirectory("aiql-store").toString
    val df = AttackDataGen.events(spark, sf = 0.004, seed = 7)
    EventStore.write(df, dir)
    (dir, EventStore.read(spark, dir).cache())
  }

  /** Run `f` on a store-backed engine, then release what it pinned, so
    * every test starts from an empty hot-partition cache.
    */
  private def withStore[A](conf: AiqlConf = AiqlConf(), dir: String = storeDir)(f: Aiql => A): A = {
    val aiql = new Aiql(spark, StorePath(dir), conf)
    try f(aiql) finally aiql.close()
  }
  private lazy val memAiql = new Aiql(spark, InMemory(events))
  private lazy val baseline = new NaiveSqlBaseline(spark, events)

  /** Spark jobs that `f` starts. They carry a job group of their own; a
    * marker job in another group, run after `f`, tells when the listener
    * bus (which delivers in order) has reported every one of them.
    */
  private def jobsOf(f: => Unit): Int = {
    val sc = spark.sparkContext
    val started = new java.util.concurrent.atomic.AtomicInteger
    val marked = new java.util.concurrent.CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some("counted") => started.incrementAndGet()
          case Some("marker")  => marked.countDown()
          case _               =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("counted", "jobs under test")
      try f finally sc.clearJobGroup()
      sc.setJobGroup("marker", "end of the counted jobs")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(marked.await(60, java.util.concurrent.TimeUnit.SECONDS), "marker job never reported")
      started.get
    } finally sc.removeSparkListener(listener)
  }

  // A host-scoped footprint is small: the default conf joins its multi-
  // pattern queries in the driver, and without broadcasts it runs the
  // staged Spark plan. So the "driver joins" arm runs every query in the
  // engine's interpreted session and the "spark joins" arm in the caller's
  // session, with its generated code.
  private val joinPaths = Seq("driver" -> AiqlConf(), "spark" -> AiqlConf(broadcastThreshold = -1))

  for (q <- InvestigationQueries.all; (path, conf) <- joinPaths) {
    test(s"${q.name} store-backed ($path joins) equals the naive SQL baseline") {
      withStore(conf)(a => TestUtil.assertSameRows(a.query(q.aiql), baseline.execute(q.aiql), q.name))
    }
  }

  test("q04 on pinned partitions runs one Spark job, query and collect together") {
    val q = InvestigationQueries.byName("q04").aiql
    withStore() { aiql =>
      aiql.query(q).collect() // pins and counts (agent 4, 08/01)
      assert(jobsOf(aiql.query(q).collect()) == 1)
    }
  }

  test("first touches and day-wide joins run one Spark job each, query and collect together") {
    def run(aiql: Aiql, name: String): Unit = aiql.query(InvestigationQueries.byName(name).aiql).collect()
    withStore() { aiql =>
      // a pin is sized from the catalog and materialized by the query's own job
      val jobs = Seq(
        "q04 on a fresh store" -> jobsOf(run(aiql, "q04")),
        "q19 on three new partitions" -> jobsOf(run(aiql, "q19")),
        "warm q08" -> { run(aiql, "q08"); jobsOf(run(aiql, "q08")) })
      assert(jobs.forall(_._2 == 1), jobs.mkString(", "))
    }
  }

  // A small footprint runs in one Spark job, aggregates included: they run
  // in one task, with no exchange. A count join aggregates rows joined in
  // the driver after the collect, so it takes a second job.
  private val allDays = """(from "08/01/2023 00:00:00" to "08/04/2023 00:00:00")"""
  private val countJoin =
    s"""$allDays
       |proc p1 read file f1 as evt1
       |proc p1["%bash"] write file f2 as evt2
       |with evt1 before evt2
       |return count(evt1) as n""".stripMargin
  private val anomalyScan =
    s"""$allDays
       |window = 30 min, step = 10 min
       |proc p["%bash"] write ip i as evt
       |return p, avg(evt.amount) as amt
       |group by p
       |having amt > 10 * (amt[1] + amt[2])""".stripMargin

  for ((what, text, jobs) <- Seq(
         ("q18", InvestigationQueries.byName("q18").aiql, 1),
         ("q20", InvestigationQueries.byName("q20").aiql, 1),
         ("a whole-store anomaly query", anomalyScan, 1),
         ("a whole-store count join with before", countJoin, 2))) {
    test(s"store-backed $what runs $jobs Spark job(s), query and collect together, and equals the baseline") {
      val expected = baseline.execute(text)
      withStore() { aiql =>
        TestUtil.assertSameRows(aiql.query(text), expected, what) // pins and counts
        assert(jobsOf(aiql.query(text).collect()) == jobs)
      }
    }
  }

  /** Whole-stage code generation in `df`'s plan, once it has run. */
  private def compiledStages(df: DataFrame): Int = {
    df.collect()
    collect(df.queryExecution.executedPlan) { case w: WholeStageCodegenExec => w }.size
  }

  for (name <- Seq("q01", "q18", "q19", "q20")) {
    test(s"store-backed $name runs interpreted on a small footprint and compiled without broadcasts") {
      val text = InvestigationQueries.byName(name).aiql
      withStore()(a => assert(compiledStages(a.query(text)) == 0))
      withStore(AiqlConf(broadcastThreshold = -1))(a => assert(compiledStages(a.query(text)) > 0))
    }
  }

  test("the engine's interpreted session carries the caller's runtime SQL settings") {
    val caller = spark.newSession()
    caller.conf.set("spark.sql.shuffle.partitions", "7")
    val text = InvestigationQueries.byName("q18").aiql
    val aiql = new Aiql(caller, StorePath(storeDir))
    try {
      val got = aiql.query(text)
      assert(!(got.sparkSession eq caller))
      assert(got.sparkSession.conf.get("spark.sql.shuffle.partitions") == "7")
      assert(got.sparkSession.conf.get("spark.sql.codegen.wholeStage") == "false")
      TestUtil.assertSameRows(got, baseline.execute(text), "q18")
    } finally aiql.close()
    val compiled = new Aiql(caller, StorePath(storeDir), AiqlConf(broadcastThreshold = -1))
    try assert(compiled.query(text).sparkSession eq caller) finally compiled.close()
  }

  for ((what, text) <- Seq(
         "a multievent query" -> InvestigationQueries.byName("q04").aiql,
         "a single-pattern query" -> InvestigationQueries.byName("q01").aiql)) {
    test(s"$what on a day the store does not hold gives the baseline's empty rows and starts no Spark job") {
      val q = text.replace(AttackDataGen.Day1, "08/09/2023")
      require(q != text, text)
      val expected = baseline.execute(q)
      withStore() { aiql =>
        TestUtil.assertSameRows(aiql.query(q), expected, q)
        assert(jobsOf(assert(aiql.query(q).collect().isEmpty)) == 0)
      }
      assert(expected.isEmpty)
    }
  }

  private def assertBaselineRows(text: String, conf: AiqlConf = AiqlConf()): Array[Row] = {
    val expected = baseline.execute(text)
    withStore(conf)(a => TestUtil.assertSameRows(a.query(text), expected, text))
    expected.collect()
  }

  test("an agent-bound two-pattern count join equals the baseline") {
    val rows = assertBaselineRows(
      """(from "08/01/2023 00:00:00" to "08/04/2023 00:00:00")
        |agentid = 4
        |proc p1 read file f1 as evt1
        |proc p1["%sqlservr.exe"] write file f2 as evt2
        |with evt1 before evt2
        |return count(evt1) as n""".stripMargin)
    assert(rows.head.getLong(0) > 0)
  }

  test("a query with an empty pattern gives the baseline's empty rows") {
    val q = InvestigationQueries.byName("q04").aiql.replace("%sbblv.exe", "%no-such.exe")
    for ((path, conf) <- joinPaths) assert(assertBaselineRows(q, conf).isEmpty, path)
  }

  test("a query with an empty pattern takes the Spark path's known-empty short-circuit: statistics, no join") {
    val q = InvestigationQueries.byName("q04").aiql.replace("%sbblv.exe", "%no-such.exe")
    val expected = baseline.execute(q)
    withStore(AiqlConf(broadcastThreshold = -1)) { aiql =>
      TestUtil.assertSameRows(aiql.query(q), expected, q) // pins the host-day
      // the statistics pass is a shuffle stage and its result; a zero count
      // folds every join leg to an empty relation, which starts no job
      assert(jobsOf(aiql.query(q).collect()) == 2)
    }
    assert(expected.isEmpty)
  }

  // The statistics pass caches the relevant set; every join leg reads that
  // cache, so no leg scans the store's files again.
  for ((what, text) <- Seq(
         "q04" -> InvestigationQueries.byName("q04").aiql,
         "q10" -> InvestigationQueries.byName("q10").aiql,
         "a whole-store count join" -> countJoin)) {
    test(s"the staged Spark joins of $what read the footprint once, through the relevant set") {
      withStore(AiqlConf(broadcastThreshold = -1)) { aiql =>
        val df = aiql.query(text)
        df.collect()
        assert(collect(df.queryExecution.executedPlan) { case s: FileSourceScanExec => s }.isEmpty,
          df.queryExecution.executedPlan.toString)
      }
    }
  }

  test("a cross product larger than the driver bound falls back to Spark joins") {
    val text =
      """(at "08/01/2023")
        |agentid = 4
        |proc p1["%sqlservr.exe"] read file f1 as evt1
        |proc p2 write ip i as evt2
        |return p1, f1, p2, i, evt2.ts""".stripMargin
    val footprint = EventStore.readPruned(spark, storeDir, Some(Seq(4)), Some(Seq("2023-08-01"))).count()
    // the footprint fits the bound, so the driver join starts; the product
    // does not, so the Spark plan over the store returns it
    val conf = AiqlConf(broadcastThreshold = footprint)
    val rows = assertBaselineRows(text, conf)
    assert(rows.length > footprint, s"${rows.length} rows over a footprint of $footprint")
    withStore(conf)(a => assert(!TestUtil.isDriverLocal(a.query(text))))
    withStore()(a => assert(TestUtil.isDriverLocal(a.query(text))))
  }

  // Day-wide and all-host footprints are sized from the store's catalog
  // too, so their small multi-pattern queries are joined in the driver.
  private val q08 = InvestigationQueries.byName("q08").aiql

  for ((day, what) <- Seq("08/01/2023" -> "the attack day", "08/03/2023" -> "a day with an empty pattern")) {
    test(s"day-wide q08 on $what is joined in the driver and equals the baseline") {
      val text = q08.replace(AttackDataGen.Day1, day)
      val expected = baseline.execute(text)
      withStore() { a =>
        val got = a.query(text)
        assert(TestUtil.isDriverLocal(got))
        TestUtil.assertSameRows(got, expected, text)
      }
      assert(expected.isEmpty == (day != AttackDataGen.Day1))
    }
  }

  test("a day-wide footprint above the driver bound keeps the Spark joins") {
    val dayRows = EventStore.readPruned(spark, storeDir, None, Some(Seq("2023-08-01"))).count()
    assertBaselineRows(q08, AiqlConf(broadcastThreshold = dayRows - 1))
    withStore(AiqlConf(broadcastThreshold = dayRows - 1))(a => assert(!TestUtil.isDriverLocal(a.query(q08))))
    withStore(AiqlConf(broadcastThreshold = dayRows))(a => assert(TestUtil.isDriverLocal(a.query(q08))))
  }

  test("an all-host count join over three days is joined in the driver and equals the baseline") {
    assert(assertBaselineRows(countJoin).head.getLong(0) > 0)
    withStore()(a => assert(TestUtil.isDriverLocal(a.query(countJoin))))
  }

  test("an all-host anomaly scan over three days equals the baseline") {
    assert(assertBaselineRows(anomalyScan).nonEmpty)
  }

  for (name <- Seq("q01", "q04", "q08", "q10", "q19", "q20")) {
    test(s"$name store-backed execution equals in-memory execution") {
      val q = InvestigationQueries.byName(name)
      withStore()(a => TestUtil.assertSameRows(a.query(q.aiql), memAiql.query(q.aiql), name))
    }
  }

  test("partition pruning does not change results") {
    val q = InvestigationQueries.byName("q04")
    withStore(AiqlConf(partitionPruning = true)) { pruned =>
      withStore(AiqlConf(partitionPruning = false)) { full =>
        TestUtil.assertSameRows(pruned.query(q.aiql), full.query(q.aiql), "pruning")
      }
    }
  }

  test("q04, q19 and q20 pin each (agent, day) partition once between them") {
    // a private copy of the store: no frame another test left cached can
    // stand in for a second copy of a partition
    val copy = Files.createTempDirectory("aiql-store-copy").toFile
    org.apache.commons.io.FileUtils.copyDirectory(new java.io.File(storeDir), copy)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    withStore(dir = copy.toString) { aiql =>
      // q04, q06, q09 and q13 investigate agents 4, 1, 2 and 3; q19 reads
      // their pins
      for (n <- Seq("q04", "q06", "q09", "q13", "q19", "q20"))
        aiql.query(InvestigationQueries.byName(n).aiql).collect()
      assert(aiql.loader.pinned == (1 to 4).map(a => (a, "2023-08-01")).toSet)
      val persisted = sc.getPersistentRDDs.keySet -- before
      assert(persisted.size == 4, s"persisted frames: $persisted")
    }
  }

  // Only a query bound to one agent (the host under investigation) pins its
  // partitions; a multi-agent footprint reads the partitions not pinned
  // from Parquet.
  private val q19 = InvestigationQueries.byName("q19").aiql

  test("a multi-agent sweep on a fresh store equals the baseline and pins nothing") {
    val text = q19.replace("agentid in (1, 2, 3, 4)", "agentid in (1, 3)")
    val expected = baseline.execute(text)
    expected.collect()
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    withStore() { aiql =>
      TestUtil.assertSameRows(aiql.query(text), expected, text)
      assert(aiql.loader.pinned.isEmpty)
      assert((sc.getPersistentRDDs.keySet -- before).isEmpty)
    }
  }

  test("q19 after q04 reuses agent 4's pin and sizes the other partitions from their footers") {
    withStore() { aiql =>
      aiql.query(InvestigationQueries.byName("q04").aiql).collect()
      TestUtil.assertSameRows(aiql.query(q19), baseline.execute(q19), "q19")
      assert(aiql.loader.pinned == Set((4, "2023-08-01")))
      val footprint = EventStore.readPruned(spark, storeDir, Some(1 to 4), Some(Seq("2023-08-01"))).count()
      assert(aiql.loader.baseEventsWithSize(Parser.parse(q19).globals)._2.contains(footprint))
    }
  }

  test("a multi-agent anomaly query equals the baseline and pins nothing") {
    val text = InvestigationQueries.byName("q20").aiql.replace("agentid = 4", "agentid in (3, 4)")
    withStore() { aiql =>
      TestUtil.assertSameRows(aiql.query(text), baseline.execute(text), text)
      assert(aiql.loader.pinned.isEmpty)
    }
  }

  test("a whole session, q01 to q20 on one engine, equals the baseline and pins the four hosts' day") {
    withStore() { aiql =>
      for (q <- InvestigationQueries.all)
        TestUtil.assertSameRows(aiql.query(q.aiql), baseline.execute(q.aiql), q.name)
      assert(aiql.loader.pinned == (1 to 4).map(a => (a, "2023-08-01")).toSet)
    }
  }

  test("an agent with no stored partition gives the baseline's empty rows") {
    val q = InvestigationQueries.byName("q04").aiql.replace("agentid = 4", "agentid = 99")
    withStore() { aiql =>
      val got = aiql.query(q)
      TestUtil.assertSameRows(got, baseline.execute(q), "agent 99")
      assert(got.isEmpty)
      assert(aiql.loader.pinned.isEmpty)
    }
  }

  test("global constraints prune the store to one agent-day") {
    val pruned = EventStore.readPruned(spark, storeDir, Some(Seq(4)), Some(Seq("2023-08-01")))
    // count data files on disk (the cached store read would otherwise be
    // substituted into an identical plan, hiding the file relation)
    import scala.jdk.CollectionConverters._
    val onDisk = Files.walk(java.nio.file.Paths.get(storeDir)).iterator.asScala
      .count(_.toString.endsWith(".parquet"))
    assert(pruned.inputFiles.length * 4 < onDisk,
      s"pruned=${pruned.inputFiles.length} onDisk=$onDisk")
    assert(pruned.inputFiles.forall(f => f.contains("agent_id=4") && f.contains("day=2023-08-01")))
  }

  test("store dedup keeps the attack trace intact") {
    val q = InvestigationQueries.byName("q13")
    withStore()(a => assert(TestUtil.containsBinding(a.query(q.aiql), q.expect)))
  }
}
